"""Command-line front end: quadrature dumps, kernel evaluation, transform
application, operator application, and the verification suites.

``transform`` sums source coefficients on the kernel's steepest-descent
contour (``transforms.forward``) on the least source rule exact for their
degree: exact for coefficient input at every z, up to rounding.  Its
``est_error`` is the distance from the series image sum_j c_j psi_j(z).

Exit codes: 0 success (all checks passed for ``verify``), 1 a verification
check failed, 2 usage or configuration error, or a result not finite in
float64.  Reports are JSON on stdout; node dumps are CSV.  ``verify`` takes
one setting, the target-rule orders ``--disk-radial`` and
``--disk-angular`` of the transforms suite (``verify.RunConfig``), echoed
into the report metadata; every other discretization and every tolerance
of the suites is fixed.

``main`` parses with one parser per process, built on its first call and
reused by every later one; the subcommands look up the library functions
they call by their module-level names at call time, so code that rebinds
those names (a tracer wrapping each layer, a test double) sees every call.
``build_parser`` returns a fresh parser on each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .kernels import FAMILIES, KernelFamily, contour_t_rule, kernel_matrix
from .operators import (DiskOperator, MonomialExpansion, _is_real, _json_complex, apply_exact,
                        apply_fd, casimir)
from .quadrature import disk_rule, gauss_halfline, gauss_line, gaussian_plane_rule
from .transforms import (CoefficientVector, contour_order, forward, make_transform,
                         series_transform)
from .verify import SUITES, RunConfig, run_suite

__all__ = ["build_parser", "main"]


def _finite(text: str) -> float:
    """Parse a finite real number; nan and inf would only come back as NaN."""
    value = float(text)  # argparse reports the ValueError of a malformed number
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _point(text: str) -> complex:
    """Parse 're,im' into a complex number with finite parts."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}")
    return complex(_finite(parts[0]), _finite(parts[1]))


def _add_family_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", required=True, choices=list(FAMILIES))
    for spec in FAMILIES.values():
        for name, cast, text in spec.params:
            parser.add_argument(f"--{name}", type=_finite if cast is float else cast,
                                help=text)


def _family_params(args: argparse.Namespace) -> tuple:
    """Collect the positional parameters the chosen family requires."""
    values = []
    for name, _, _ in FAMILIES[args.family].params:
        value = getattr(args, name)
        if value is None:
            raise ValueError(f"family {args.family!r} needs --{name}")
        values.append(value)
    return tuple(values)


def _emit(payload: dict, allow_nan: bool = False) -> None:
    """Write one JSON report, serialized first: JSON holds no NaN or Infinity,
    so a non-finite number (a kernel past float64) raises ValueError and
    writes nothing.  Only a verify report may carry one, in a failed check."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=allow_nan)
    except ValueError:
        raise ValueError("the result is not finite in float64") from None
    sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_nodes(args: argparse.Namespace) -> int:
    if args.rule in ("line", "halfline"):
        if args.n is None:
            raise ValueError(f"--rule {args.rule} needs --n")
        rule = gauss_line(args.n) if args.rule == "line" else gauss_halfline(args.n, args.alpha)
    elif args.radial is None or args.angular is None:
        raise ValueError(f"--rule {args.rule} needs --radial and --angular")
    elif args.rule == "disk":
        rule = disk_rule(args.radial, args.angular, args.gamma)
    else:
        rule = gaussian_plane_rule(args.radial, args.angular)
    nodes = np.asarray(rule.nodes, dtype=complex)
    for node, weight in zip(nodes, rule.weights):
        print(f"{node.real:.17g}, {node.imag:.17g}, {weight:.17g}")
    return 0


def _cmd_kernel_eval(args: argparse.Namespace) -> int:
    family = KernelFamily(args.family, _family_params(args))
    z = np.array([args.z])
    x = np.array([args.x])
    value = complex(kernel_matrix(family, z, x, strategy="primary")[0, 0])
    payload = {
        "family": args.family,
        "z_re": args.z.real,
        "z_im": args.z.imag,
        "x": args.x,
        "value_re": value.real,
        "value_im": value.imag,
    }
    if args.cross_check:
        other = complex(
            kernel_matrix(family, z, x, strategy="series", J=args.truncation)[0, 0]
        )
        payload["cross_check_re"] = other.real
        payload["cross_check_im"] = other.imag
        payload["discrepancy"] = abs(value - other)
    _emit(payload)
    return 0


def _load_coefficients(path: str) -> np.ndarray:
    """The source coefficients of a JSON list; json reads NaN and Infinity,
    so non-finite entries are refused here."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, list) or not raw:
        raise ValueError("coefficient file must hold a non-empty JSON list")
    out = np.empty(len(raw), dtype=complex)
    for k, entry in enumerate(raw):
        out[k] = entry if _is_real(entry) else _json_complex(entry)
    if not np.all(np.isfinite(out)):
        raise ValueError("coefficients must be finite")
    return out


def _cmd_transform(args: argparse.Namespace) -> int:
    kernel = KernelFamily(args.family, _family_params(args))
    coeffs = _load_coefficients(args.input)
    degree = coeffs.shape[0] - 1
    # the contour is exact for this degree on a rule of the exact order
    op = make_transform(args.family, *kernel.params, source_order=contour_order(kernel, degree))
    if degree > op.series_truncation:
        raise ValueError(
            f"coefficient degree {degree} exceeds the series "
            f"truncation {op.series_truncation}"
        )
    c = CoefficientVector(coeffs, kernel.source_basis(), degree)
    value = complex(forward(op, c, args.at))
    # a-posteriori estimate: the exact image sum_j c_j psi_j(z) by the
    # series route, which shares only the coefficients with the contour
    other = complex(series_transform(c, kernel.target_basis(), args.at))
    payload = {
        "value_re": value.real,
        "value_im": value.imag,
        "truncation": op.series_truncation,
        "est_error": abs(value - other),
        "route": "contour",
        "source_order": op.source_rule.nodes.shape[0],
    }
    t_rule = contour_t_rule(kernel, degree)
    if t_rule is not None:
        payload["t_order"] = t_rule.nodes.shape[0]
    _emit(payload)
    return 0


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are all distinct; json keeps only the last
    of a repeated key."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"JSON key {key!r} appears more than once")
        out[key] = value
    return out


def _cmd_operator(args: argparse.Namespace) -> int:
    op = casimir(args.gamma) if args.casimir else DiskOperator(args.gamma)
    with open(args.apply, "r", encoding="utf-8") as handle:
        expansion = MonomialExpansion.from_json(
            json.load(handle, object_pairs_hook=_unique_keys))
    if args.fd:
        if args.at is None:
            raise ValueError("--fd needs --at re,im")
        value = complex(apply_fd(op, expansion, args.at, h=args.h))
        _emit({"value_re": value.real, "value_im": value.imag})
        return 0
    _emit(apply_exact(op, expansion).to_json())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(args.suite, RunConfig(args.disk_radial, args.disk_angular))
    _emit(report.to_json(), allow_nan=True)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bargmann",
        description="Bargmann-type transforms: kernels, quadrature, "
                    "operators, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nodes", help="dump a quadrature rule as CSV "
                                     "(node_re, node_im, weight)")
    p.add_argument("--rule", required=True,
                   choices=["line", "halfline", "disk", "plane"])
    p.add_argument("--n", type=int, help="order for line/halfline rules")
    p.add_argument("--alpha", type=_finite, default=0.0,
                   help="halfline measure exponent (default 0)")
    p.add_argument("--radial", type=int, help="radial order for disk/plane rules")
    p.add_argument("--angular", type=int, help="angular order for disk/plane rules")
    p.add_argument("--gamma", type=_finite, default=0.0,
                   help="disk weight exponent (default 0)")
    p.set_defaults(func=_cmd_nodes)

    p = sub.add_parser("kernel-eval", help="evaluate a transform kernel K(z, x)")
    _add_family_arguments(p)
    p.add_argument("--z", required=True, type=_point, help="target point re,im")
    p.add_argument("--x", required=True, type=_finite, help="source point")
    p.add_argument("--cross-check", action="store_true",
                   help="also evaluate by truncated basis series and report "
                        "the discrepancy")
    p.add_argument("--truncation", type=int, default=64,
                   help="series truncation for --cross-check (default 64)")
    p.set_defaults(func=_cmd_kernel_eval)

    p = sub.add_parser("transform", help="apply a forward transform to source "
                                         "coefficients at one target point, on the "
                                         "kernel's steepest-descent contour: exact for "
                                         "coefficient input at every z")
    _add_family_arguments(p)
    p.add_argument("--input", required=True,
                   help="JSON file: list of source-basis coefficients, "
                        "numbers or [re, im] pairs")
    p.add_argument("--at", required=True, type=_point, help="target point re,im")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("operator", help="apply an invariant disk operator to a "
                                        "monomial expansion")
    p.add_argument("--gamma", required=True, type=_finite)
    p.add_argument("--casimir", action="store_true",
                   help="use the shifted (Casimir) form of the operator")
    p.add_argument("--apply", required=True,
                   help="JSON file with {'a,b': [re, im]} expansion terms")
    p.add_argument("--fd", action="store_true",
                   help="evaluate by centered finite differences at --at "
                        "instead of symbolically")
    p.add_argument("--at", type=_point, help="evaluation point re,im for --fd")
    p.add_argument("--h", type=_finite, default=1e-3,
                   help="finite-difference step (default 1e-3)")
    p.set_defaults(func=_cmd_operator)

    p = sub.add_parser("verify", help="run a verification suite and print the "
                                      "JSON report")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--disk-radial", type=int,
                   help="radial order of every target rule (default: derived)")
    p.add_argument("--disk-angular", type=int,
                   help="angular order of every target rule (default: derived)")
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
