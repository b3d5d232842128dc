"""Seeded request stream for the point-queries workload.

Requests are ``bargmann.cli.main(argv)`` argument lists.  They come in
blocks of fourteen: ``kernel-eval`` and ``transform`` once for each of the
five families, and ``operator`` twice exactly and twice by finite
differences, shuffled within the block.  The fixed block mix keeps the
share of expensive requests the same for every seed, so the latency
quantiles fall inside one kind of request instead of between kinds.

Every input is valid: |z| <= Z_MAX < 1, so the finite-difference stencil
(|z| + 2h) stays inside the unit disk; ell <= floor(nu - 1/2); every
numeric option is written as ``--name=value``, because argparse would read
a bare ``-0.3,0.2`` as a flag.  Generated with the standard library's
``random`` so the stream does not depend on the numpy version.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

FAMILIES = ("classical", "second", "generalized_second", "dirichlet",
            "gen_bergman_dirichlet")
# Twelve (alpha, m) pairs, more than the eight slots of the lru_cache on
# kernels._default_omega, so kernel-eval requests also miss that cache.
GBD_PAIRS = tuple((alpha, m) for m in (2, 3, 4) for alpha in (0.0, 0.5, 1.5, 3.0))
Z_MAX = 0.95
X_MAX = 30.0
DEGREE_MAX = 15
FD_STEP = 1e-3            # the CLI's default --h
BLOCK = 14


@dataclass(frozen=True)
class Request:
    """One CLI call and what the oracle needs to check its output."""

    argv: tuple
    command: str          # kernel-eval, transform, operator or operator-fd
    family: str = ""
    params: tuple = ()
    z: complex = 0j
    x: float = 0.0
    payload: object = None    # the JSON written to the input file, if any
    path: str = ""            # where that file goes


def _point(rng: random.Random) -> complex:
    r = Z_MAX * math.sqrt(rng.random())
    theta = 2.0 * math.pi * rng.random()
    return complex(r * math.cos(theta), r * math.sin(theta))


def _fmt(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _gaussian_pair(rng: random.Random) -> list:
    return [rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)]


def _family_args(family: str, params: tuple) -> list:
    names = {"second": ("delta",), "generalized_second": ("nu", "ell"),
             "gen_bergman_dirichlet": ("alpha", "m")}.get(family, ())
    return [f"--family={family}"] + [f"--{n}={v!r}" for n, v in zip(names, params)]


class RequestStream:
    """Deterministic request stream; ``workdir`` is where input files go."""

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.count = 0
        self._pairs: dict = {"kernel-eval": [], "transform": []}

    def _params(self, family: str, command: str) -> tuple:
        rng = self.rng
        if family == "second":
            return (rng.uniform(0.5, 3.0),)
        if family == "generalized_second":
            nu = rng.uniform(1.0, 4.0)
            return (nu, rng.randint(0, math.floor(nu - 0.5)))
        if family == "gen_bergman_dirichlet":
            # each command walks its own shuffled cycles through all pairs,
            # so every seed runs each pair equally often
            pairs = self._pairs[command]
            if not pairs:
                pairs.extend(GBD_PAIRS)
                rng.shuffle(pairs)
            return pairs.pop()
        return ()

    def _path(self) -> str:
        return f"{self.workdir}/in{self.count}.json"

    def _kernel_eval(self, family: str) -> Request:
        params = self._params(family, "kernel-eval")
        z = _point(self.rng)
        low = -X_MAX if family == "classical" else 0.0
        x = self.rng.uniform(low, X_MAX)
        argv = ("kernel-eval", *_family_args(family, params), f"--z={_fmt(z)}",
                f"--x={x!r}")
        return Request(argv, "kernel-eval", family, params, z, x)

    def _transform(self, family: str) -> Request:
        params = self._params(family, "transform")
        z = _point(self.rng)
        degree = self.rng.randint(0, DEGREE_MAX)
        coeffs = [_gaussian_pair(self.rng) for _ in range(degree + 1)]
        path = self._path()
        argv = ("transform", *_family_args(family, params), f"--input={path}",
                f"--at={_fmt(z)}")
        return Request(argv, "transform", family, params, z, payload=coeffs, path=path)

    def _operator(self, fd: bool) -> Request:
        rng = self.rng
        gamma = rng.uniform(0.5, 4.0)
        casimir = rng.random() < 0.5
        powers = [(a, b) for a in range(4) for b in range(4) if a + b <= 4]
        keys = rng.sample(powers, rng.randint(1, 4))
        terms = {f"{a},{b}": _gaussian_pair(rng) for a, b in sorted(keys)}
        path = self._path()
        argv = ["operator", f"--gamma={gamma!r}", f"--apply={path}"]
        if casimir:
            argv.append("--casimir")
        z = 0j
        if fd:
            z = _point(rng)
            argv += ["--fd", f"--at={_fmt(z)}"]
        return Request(tuple(argv), "operator-fd" if fd else "operator", "",
                       (gamma, casimir), z, payload=terms, path=path)

    def block(self) -> list:
        """The next fourteen requests."""
        makers = [lambda f=f: self._kernel_eval(f) for f in FAMILIES]
        makers += [lambda f=f: self._transform(f) for f in FAMILIES]
        makers += [lambda: self._operator(False)] * 2 + [lambda: self._operator(True)] * 2
        self.rng.shuffle(makers)
        out = []
        for make in makers:
            out.append(make())
            self.count += 1
        return out

    def __iter__(self):
        while True:
            yield from self.block()
