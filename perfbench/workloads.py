"""The benchmark's workloads: seeded inputs, the timed call, and the oracle.

Each workload drives bargmann through its public functions.  ``inputs``
yields the seeded operations forever, ``prepare`` does untimed per-operation
work of the benchmark's own (writing input files), ``execute`` is the timed
call into the library, and ``check`` compares the outputs with an oracle
after the timed region.  Library functions are looked up on their modules
at call time, so a tracer that wraps them sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from querygen import BLOCK, FD_STEP, GBD_PAIRS, RequestStream
from tracing import TRACED_SUITES as DISK_SUITES

# Tolerances.  Every numeric CLI answer is held to one relative tolerance,
# except the finite-difference operator (see PointQueries.fd_bound).
QUERY_RTOL = 1e-8
OPERATOR_EXACT_RTOL = 1e-12
# The verify suite's tolerances for the same identities.
PAIRING_TOL = 1e-7
ISOMETRY_TOL = 1e-6
GRAM_TOL = 1e-8
ROUND_TRIP_TOL = 1e-4
ROUND_TRIP_SERIES_TOL = 1e-8


@dataclass
class Outcome:
    """What the oracle found, over all operations of one run."""

    attempted: int = 0
    failed: int = 0
    unexpected: int = 0       # failures outside the known-defect domain
    uncertified: int = 0      # answers the oracle could not pin to 1e-8
    checks_failed: int = 0    # failed checks of verify suites run as operations
    worst_error: float = 0.0

    def add(self, passed: bool, error: float | None = None, known_defect: bool = False):
        """Count one operation; an error given enters accuracy_digits."""
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.unexpected += not known_defect
        if error is not None and not error <= self.worst_error:   # NaN is worst
            self.worst_error = error if math.isfinite(error) else math.inf

    @property
    def accuracy_digits(self) -> float:
        """-log10 of the worst error, clamped to [-16, 16]."""
        if self.worst_error == 0.0:
            return 16.0
        return max(-16.0, min(16.0, -math.log10(self.worst_error)))


class Workload:
    name = ""
    # Operations per second at the baseline (perfbench/BASELINE.md); a run
    # of S seconds does OPS_PER_S * S of them, in whole multiples of GRAIN.
    OPS_PER_S = 1.0
    GRAIN = 1

    def __init__(self, bargmann, seed: int, workdir: str):
        self.b = bargmann
        self.seed = seed
        self.workdir = workdir

    @classmethod
    def operations(cls, seconds: float) -> int:
        """How many operations a run of ``seconds`` does (at least one)."""
        grains = round(cls.OPS_PER_S * seconds / cls.GRAIN)
        return max(1, cls.GRAIN * grains)

    def setup(self) -> None:
        """Program work done once before the timed region (counts in setup_s)."""

    def prepare(self, item) -> None:
        """Untimed work of the benchmark's own before one operation."""

    def inputs(self):
        raise NotImplementedError

    def execute(self, item):
        raise NotImplementedError

    def check(self, done: list) -> Outcome:
        raise NotImplementedError


class CircleMap(Workload):
    """Forward-map rows, one circle point each, of the generalized
    Bergman-Dirichlet transform on the circle the transforms suite extracts
    Taylor coefficients from (rotated by a seeded angle)."""

    name = "circle-map"
    OPS_PER_S = 3.0
    RADIUS = 0.75
    POINTS = 146          # the circle forward_gram(op, 24) samples
    PARAMS = (0.5, 2)     # the verify suite's case

    def setup(self):
        self.op = self.b.transforms.make_transform("gen_bergman_dirichlet", *self.PARAMS)

    def inputs(self):
        rng = np.random.default_rng(self.seed)
        turns = rng.random() + np.arange(self.POINTS) / self.POINTS
        points = self.RADIUS * np.exp(2j * np.pi * turns)
        while True:
            for k in range(self.POINTS):
                yield points[k: k + 1]

    def execute(self, item):
        return self.b.transforms.forward_map(self.op, item)

    def check(self, done):
        special = self.b.special
        kernel = self.op.kernel
        phi = special.basis_matrix(kernel.source_basis(), 8, self.op.source_rule.nodes)
        out = Outcome()
        for z, rows in done:
            want = special.basis_matrix(kernel.target_basis(), 8, z)
            err = float(np.max(np.abs(rows @ phi - want)))
            out.add(err <= PAIRING_TOL, err)
        return out


class PointQueries(Workload):
    """In-process CLI requests, each sent when the previous one returned."""

    name = "point-queries"
    OPS_PER_S = 22.0
    # whole cycles of blocks through the (alpha, m) pairs, so every seed
    # runs the same mix of requests and of omega weights
    GRAIN = BLOCK * len(GBD_PAIRS)
    # ROADMAP item 4: the plain Dirichlet kernel's fixed 200-node t-rule
    # misses 1e-8 relative at large |z| and x (1e-7 already at |z| = 0.73,
    # x = 27).  The kernels suite checks that route only for |z| <= 0.6 and
    # x <= 9.6; misses outside that domain count as failed operations but
    # do not make the run incorrect.
    VERIFIED_DIRICHLET = (0.6, 9.6)

    def inputs(self):
        return iter(RequestStream(self.seed, self.workdir))

    def prepare(self, item):
        if item.path:
            with open(item.path, "w", encoding="utf-8") as handle:
                json.dump(item.payload, handle)

    def execute(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.b.cli.main(list(item.argv))
        return code, out.getvalue()

    def _family(self, item):
        return self.b.kernels.KernelFamily(item.family, item.params)

    def _kernel_oracle(self, item) -> tuple:
        """Basis series sum_j psi_j(z) phi_j(x), with a bound on its own
        absolute error.

        J starts where |z|^J < 1e-17 and doubles until J and 2J agree to
        1e-14.  Where the terms cancel (large |x z| at some angles) the
        float64 sum is only good to about eps * sum |terms|, which can
        exceed the kernel itself; 1e-13 * sum |terms| bounds that with a
        margin of about 75 over the losses measured against 50-digit
        closed forms.
        """
        family = self._family(item)
        basis_matrix = self.b.special.basis_matrix
        r = abs(item.z)
        J = 64 if r < 1e-3 else max(64, math.ceil(math.log(1e-17) / math.log(r)))

        def terms(J):
            return (basis_matrix(family.target_basis(), J, np.array([item.z]))[0]
                    * basis_matrix(family.source_basis(), J, np.array([item.x]))[0])

        value = complex(terms(J).sum())
        while J < 16384:
            J *= 2
            t = terms(J)
            finer = complex(t.sum())
            if abs(finer - value) <= 1e-14 * abs(finer):
                return finer, 1e-13 * float(np.abs(t).sum())
            value = finer
        raise RuntimeError(f"kernel series oracle did not converge for {item.argv}")

    def _transform_oracle(self, item) -> complex:
        b = self.b
        family = self._family(item)
        coeffs = np.array([complex(*c) for c in item.payload])
        c = b.transforms.CoefficientVector(coeffs, family.source_basis(), coeffs.size - 1)
        return complex(b.transforms.series_transform(c, family.target_basis(), item.z))

    @staticmethod
    def fd_bound(gamma: float, h: float = FD_STEP) -> float:
        """Error bound of the CLI's --fd answer over sum |c_ab| of the input.

        For a polynomial of total degree <= 4 the five-point Laplacian errs
        by exactly (h^2/12)(f_xxxx + f_yyyy) and each central first
        difference by (h^2/6) f_xxx; on |z| < 1 those derivatives of a
        monomial are at most 24.  Through -4(1-u)[(1-u) f_zzbar - gamma
        zbar f_zbar] that gives 4 (1 + 4 gamma) h^2, plus 1e-8 for the
        rounding of dividing O(1) differences by h^2.
        """
        return 4.0 * (1.0 + 4.0 * gamma) * h * h + 1e-8

    @staticmethod
    def _operator_oracle(item) -> dict:
        """The documented three-term monomial action, written out here."""
        gamma, casimir = item.params
        shift = 2.0 * gamma - gamma * gamma if casimir else 0.0
        out: dict = {}
        for key, (re, im) in item.payload.items():
            a, b = (int(p) for p in key.split(","))
            c = complex(re, im)
            for (da, db), factor in (((-1, -1), -4.0 * a * b),
                                     ((0, 0), 4.0 * (2 * a * b + gamma * b) + shift),
                                     ((1, 1), -4.0 * (a * b + gamma * b))):
                if factor and a + da >= 0 and b + db >= 0:
                    k = (a + da, b + db)
                    out[k] = out.get(k, 0j) + factor * c
        return out

    def check(self, done):
        out = Outcome()
        for item, (code, text) in done:
            if code != 0:
                out.add(False)
                continue
            payload = json.loads(text)
            if item.command == "operator":
                want = self._operator_oracle(item)
                got = {tuple(int(p) for p in k.split(",")): complex(*v)
                       for k, v in payload.items()}
                scale = max([abs(v) for v in want.values()] + [1e-300])
                err = max(abs(got.get(k, 0j) - want.get(k, 0j))
                          for k in set(got) | set(want)) if got or want else 0.0
                out.add(err <= OPERATOR_EXACT_RTOL * scale, err / scale)
                continue
            value = complex(payload["value_re"], payload["value_im"])
            if item.command == "operator-fd":
                want = self._operator_oracle(item)
                exact = sum(c * item.z ** a * item.z.conjugate() ** b
                            for (a, b), c in want.items())
                scale = sum(math.hypot(*c) for c in item.payload.values())
                err = abs(value - exact) / scale
                out.add(err <= self.fd_bound(item.params[0]), err)
                continue
            if item.command == "kernel-eval":
                want, oracle_err = self._kernel_oracle(item)
                r_max, x_max = self.VERIFIED_DIRICHLET
                known = item.family == "dirichlet" and (abs(item.z) > r_max
                                                        or item.x > x_max)
            else:
                want, oracle_err = self._transform_oracle(item), 0.0
                # near the boundary the fixed source rule does not resolve the
                # kernel's oscillation (see transforms._norm_strategy); a miss
                # within ten times the CLI's own est_error is reported, not
                # silent
                known = abs(value - want) <= 10.0 * payload["est_error"]
            miss = abs(value - want)
            certified = oracle_err <= 0.1 * QUERY_RTOL * abs(want)
            out.uncertified += not certified
            out.add(miss <= QUERY_RTOL * abs(want) + oracle_err,
                    miss / abs(want) if certified else None, known)
        return out


class DiskBatch(Workload):
    """Per round: make_transform, isometry, Gram matrix and round trip for
    each non-omega family, then the special, quadrature and operators
    verify suites."""

    name = "disk-batch"
    OPS_PER_S = 0.4
    KINDS = ("classical", "second", "generalized_second", "dirichlet")

    def inputs(self):
        rng = np.random.default_rng(self.seed)
        while True:
            cases = []
            for kind in rng.permutation(self.KINDS):
                if kind == "second":
                    params = (float(rng.uniform(0.5, 3.0)),)
                elif kind == "generalized_second":
                    nu = float(rng.uniform(1.0, 4.0))
                    params = (nu, int(rng.integers(0, math.floor(nu - 0.5) + 1)))
                else:
                    params = ()
                C = rng.standard_normal((9, 20)) + 1j * rng.standard_normal((9, 20))
                vector = np.zeros(16, dtype=complex)
                vector[:9] = rng.standard_normal(9) + 1j * rng.standard_normal(9)
                cases.append((str(kind), params, C, vector))
            yield cases

    def execute(self, item):
        t = self.b.transforms
        results = []
        for kind, params, C, vector in item:
            op = t.make_transform(kind, *params)
            src, tgt = t.isometry_norms(op, C)
            gram = t.forward_gram(op, 24)
            if kind == "dirichlet":
                c = t.CoefficientVector(vector, op.kernel.source_basis(), 15)
                trip = t.round_trip_series(op, c)
            else:
                # the verify suite's small round-trip operator
                small = t.make_transform(kind, *params, source_order=12,
                                         series_truncation=15, inverse_truncation=40)
                c = t.CoefficientVector(vector, small.kernel.source_basis(), 15)
                trip = t.round_trip_integral(small, c)
            results.append((float(np.max(np.abs(src - tgt))),
                            float(np.max(np.abs(gram - np.eye(25)))), float(trip)))
        verify = self.b.verify
        reports = [verify.run_suite(name, verify.RunConfig()) for name in DISK_SUITES]
        return results, reports

    @staticmethod
    def known_defect(kind: str, params: tuple) -> bool:
        """Where the round trip is known to miss its tolerance.

        For ell >= 1 the folded target rule has the weight exponent
        2 nu - 2 - 2 ell, and the round trip through the verify suite's
        small operator degrades as that exponent nears -1 (3e-4 at
        nu - ell = 0.55, against 1e-4).  The suite checks it only at
        nu = 3, ell = 2.
        """
        if kind != "generalized_second":
            return False
        nu, ell = params
        return ell >= 1 and 2.0 * nu - 2.0 - 2.0 * ell < 0.0

    def check(self, done):
        out = Outcome()
        for cases, (results, reports) in done:
            for (kind, params, *_), (iso, gram, trip) in zip(cases, results):
                trip_tol = ROUND_TRIP_SERIES_TOL if kind == "dirichlet" else ROUND_TRIP_TOL
                passed = iso <= ISOMETRY_TOL and gram <= GRAM_TOL and trip <= trip_tol
                out.add(passed, max(iso, gram, trip), self.known_defect(kind, params))
            for report in reports:
                for c in report.checks:
                    out.add(c.passed)
                    out.checks_failed += not c.passed
        return out


WORKLOADS = {w.name: w for w in (CircleMap, PointQueries, DiskBatch)}
