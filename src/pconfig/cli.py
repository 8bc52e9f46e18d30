"""Command-line entry point.

Subcommands
-----------
``validate``    axiom checks and classification of a family descriptor
``conjugate``   conjugation of a family to a target, with the solver log
``solve-fe``    nonlinear solution of the additive functional equation
``probe``       endpoint difference-quotient probe of a computed solution
``nonregular``  flat-point non-isomorphism experiment

Exit codes: 0 success, 1 quantitative failure, 2 usage or config error.
Reports are JSON, function samples are CSV (17 significant digits), and
each sampled output gets a plain-text gnuplot script next to it; outputs
are byte-deterministic for identical configs.  All files are written
atomically (temp file then rename).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

from . import analysis, cauchy, conjugacy, families, funcspace
from .errors import DyadicCheckFailure, InvalidPair, PConfigError, ScaleBelowGrid

EXIT_OK = 0
EXIT_QUANTITATIVE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Config or argument problem; maps to exit code 2."""


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def _atomic_write(path: Path, text: str):
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_options(args):
    """Reject option values no subcommand can run with."""
    if args.grid < families.MIN_GRID:
        raise UsageError(f"--grid must be >= {families.MIN_GRID}")


def _output_dir(args) -> Path:
    """The --out directory, created if missing, which must be writable.

    Each subcommand asks for it once its inputs have loaded, so a command
    refused for its inputs leaves no directory behind.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise UsageError(f"output directory {out} is not writable")
    return out


def _load_family(path: str | None) -> families.MapPair:
    """The pair a family descriptor file describes."""
    if path is None:
        raise UsageError("--config <descriptor.json> is required")
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {p}")
    return families.build_family(p.read_text())


def _resolve_target(spec: str | None) -> families.MapPair | None:
    """--target accepts 'standard', 'quadratic:<c>' or a descriptor path."""
    if spec is None:
        return None
    if spec == "standard":
        return families.standard_pair()
    if spec.startswith("quadratic:"):
        return families.build_family(
            {"family": "quadratic", "c": spec.split(":", 1)[1]})
    return _load_family(spec)


def _gnuplot_script(csv_name: str, title: str, columns: str = "1:2") -> str:
    return (
        "set datafile separator ','\n"
        "set key off\n"
        f"set title '{title}'\n"
        f"plot '{csv_name}' every ::1 using {columns} with lines\n"
    )


def _parse_scales(text: str) -> tuple[int, int]:
    try:
        k_min, k_max = (int(p) for p in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"--scales expects kmin:kmax, got {text!r}") from exc
    if not 0 < k_min < k_max:
        raise UsageError("--scales needs 0 < kmin < kmax")
    return k_min, k_max


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_validate(args) -> int:
    pair = _load_family(args.config)
    out = _output_dir(args)
    report = families.validate(pair, grid=args.grid)
    _atomic_write(out / "validation.json", report.to_json() + "\n")
    print(f"classification: {report.classification}")
    return EXIT_OK if report.classification != "invalid" else EXIT_QUANTITATIVE


def cmd_conjugate(args) -> int:
    source = _load_family(args.config)
    target = _resolve_target(args.target)
    out = _output_dir(args)
    h, log = conjugacy.conjugate_to_standard(source, grid=args.grid)
    if target is not None:
        h = conjugacy.retarget(h, target, grid=args.grid)
    _atomic_write(out / "h.csv", funcspace.to_csv(h))
    _atomic_write(out / "convergence.json", log.to_json() + "\n")
    _atomic_write(out / "h.gp", _gnuplot_script("h.csv", "conjugation h"))
    print(f"residual: {log.residual:.3e}  nodes: {log.grid}")
    # the labels increase strictly by construction, so only a retargeted
    # composition that rounds adjacent values together can fail here
    return EXIT_OK if h.is_strictly_increasing() else EXIT_QUANTITATIVE


def cmd_solve_fe(args) -> int:
    pair = _load_family(args.config)
    target = _resolve_target(args.target)
    out = _output_dir(args)
    cert = cauchy.solve_nonlinear(pair, target=target, grid=args.grid)
    _atomic_write(out / "certificate.json", cert.to_json() + "\n")
    _atomic_write(out / "solution.csv", funcspace.to_csv(cert.solution))
    _atomic_write(out / "solution.gp",
                  _gnuplot_script("solution.csv", "functional-equation solution"))
    print(f"fe_residual: {cert.fe_residual:.3e}  "
          f"nonlinearity_gap: {cert.nonlinearity_gap:.3e}"
          f"{'  (degenerate)' if cert.degenerate else ''}")
    if cert.degenerate and not args.allow_degenerate:
        return EXIT_QUANTITATIVE
    bound = 10.0 * cert.solution.max_local_variation
    ok = cert.fe_residual <= max(bound, 1e-12)
    ok = ok and (cert.degenerate or cert.nonlinearity_gap > 0.0)
    return EXIT_OK if ok else EXIT_QUANTITATIVE


def cmd_probe(args) -> int:
    k_min, k_max = _parse_scales(args.scales)
    if args.h_csv is not None:
        h_csv = Path(args.h_csv)
        if not h_csv.exists():
            raise UsageError(f"h CSV not found: {h_csv}")
        h = funcspace.from_csv(h_csv.read_text())
        out = _output_dir(args)
    else:
        pair = _load_family(args.config)
        out = _output_dir(args)
        h, _ = conjugacy.conjugate_to_standard(pair, grid=args.grid)
    try:
        probe = analysis.difference_quotients(h, args.t0, k_min, k_max)
    except ScaleBelowGrid as exc:
        print(f"scale/grid mismatch: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _atomic_write(out / "probe.json", probe.to_json() + "\n")
    _atomic_write(out / "probe.csv", probe.to_csv())
    _atomic_write(out / "probe.gp",
                  _gnuplot_script("probe.csv", "difference quotients", "2:3"))
    print(f"holder_exponent: {probe.holder_exponent:.4f}")
    return EXIT_OK


def cmd_nonregular(args) -> int:
    if args.n == args.k or args.n < 1 or args.k < 1:
        raise UsageError("need distinct cell indices --n != --k, both >= 1")
    if args.m_max < 1:
        raise UsageError("--m-max must be >= 1")
    out = _output_dir(args)
    try:
        report = analysis.nonregular_experiment(
            args.n, args.k, grid=args.grid, m_max=args.m_max)
    except DyadicCheckFailure as exc:
        print(f"dyadic check failed: {exc}", file=sys.stderr)
        return EXIT_QUANTITATIVE
    _atomic_write(out / "experiment.json", report.to_json() + "\n")
    print(f"verdict: {report.verdict}")
    return EXIT_OK if report.verdict == "non-isomorphic" else EXIT_QUANTITATIVE


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

#: The options shared by several subcommands, each declared once.
_SHARED_OPTIONS = {
    "--config": {"help": "family descriptor JSON path"},
    "--grid": {"type": int, "default": conjugacy.DEFAULT_GRID},
    "--target": {"help": "path | standard | quadratic:<c>"},
    "--out": {"default": "."},
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pconfig",
        description="two-map interval systems: validation, conjugacy, "
                    "functional-equation solutions, regularity probes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help, *shared):
        p = sub.add_parser(name, help=help)
        for option in shared:
            p.add_argument(option, **_SHARED_OPTIONS[option])
        return p

    command("validate", "axiom checks and classification",
            "--config", "--grid", "--out")

    command("conjugate", "conjugation to a target pair",
            "--config", "--grid", "--out", "--target")

    p = command("solve-fe", "nonlinear functional-equation solution",
                "--config", "--grid", "--out", "--target")
    p.add_argument("--allow-degenerate", action="store_true")

    p = command("probe", "endpoint difference-quotient probe",
                "--config", "--grid", "--out")
    p.add_argument("--t0", type=float, choices=(-1.0, 1.0), default=1.0)
    p.add_argument("--scales", default="4:10", help="kmin:kmax")
    p.add_argument("--h-csv", help="probe an existing solution CSV")

    p = command("nonregular", "flat-point non-isomorphism experiment",
                "--grid", "--out")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--m-max", type=int, default=8)

    return ap


_DISPATCH = {
    "validate": cmd_validate,
    "conjugate": cmd_conjugate,
    "solve-fe": cmd_solve_fe,
    "probe": cmd_probe,
    "nonregular": cmd_nonregular,
}


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        _check_options(args)
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DyadicCheckFailure, InvalidPair) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUANTITATIVE
    except PConfigError as exc:
        # malformed descriptors, bad domains and the like
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
