"""Command-line entry point.

Subcommands
-----------
``validate``    axiom checks and classification of a family descriptor
``conjugate``   conjugation of a family to a target, with convergence log
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
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import analysis, cauchy, conjugacy, families, funcspace
from .errors import (
    DyadicCheckFailure,
    InvalidPair,
    MaxIterExceeded,
    PConfigError,
    ScaleBelowGrid,
)

EXIT_OK = 0
EXIT_QUANTITATIVE = 1
EXIT_USAGE = 2

RATIO_BOUND = 0.5 + 1e-3


class UsageError(Exception):
    """Config or argument problem; maps to exit code 2."""


@dataclass
class RunConfig:
    """The parsed arguments of one run.  The defaults live in the parser;
    options a subcommand does not take stay None."""

    command: str
    descriptor: dict | None
    grid: int
    tol: float
    max_iter: int
    out: Path
    target: str | None = None
    t0: float | None = None
    k_min: int | None = None
    k_max: int | None = None
    n: int | None = None
    k: int | None = None
    m_max: int | None = None
    allow_degenerate: bool = False
    h_csv: Path | None = None

    def __post_init__(self):
        if self.grid < 257:
            raise UsageError("--grid must be >= 257")
        if not 0.0 < self.tol < 1.0:
            raise UsageError("--tol must lie in (0, 1)")
        if self.max_iter < 1:
            raise UsageError("--max-iter must be >= 1")
        self.out = Path(self.out)
        self.out.mkdir(parents=True, exist_ok=True)
        if not os.access(self.out, os.W_OK):
            raise UsageError(f"output directory {self.out} is not writable")


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


def _load_descriptor(path: str | None) -> dict:
    if path is None:
        raise UsageError("--config <descriptor.json> is required")
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {p}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc


def _resolve_target(spec: str | None) -> families.MapPair | None:
    """--target accepts 'standard', 'quadratic:<c>' or a descriptor path."""
    if spec is None:
        return None
    if spec == "standard":
        return families.standard_pair()
    if spec.startswith("quadratic:"):
        try:
            return families.quadratic_pair(float(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise UsageError(f"bad quadratic target {spec!r}") from exc
    return families.build_family(_load_descriptor(spec))


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
    if not 0 < k_min <= k_max:
        raise UsageError("--scales needs 0 < kmin <= kmax")
    return k_min, k_max


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_validate(cfg: RunConfig) -> int:
    pair = families.build_family(cfg.descriptor)
    report = families.validate(pair, mode="full", grid=cfg.grid)
    _atomic_write(cfg.out / "validation.json", report.to_json() + "\n")
    print(f"classification: {report.classification}")
    return EXIT_OK if report.classification != "invalid" else EXIT_QUANTITATIVE


def cmd_conjugate(cfg: RunConfig) -> int:
    source = families.build_family(cfg.descriptor)
    target = _resolve_target(cfg.target)
    try:
        h, log = conjugacy.conjugate_to_standard(
            source, grid=cfg.grid, tol=cfg.tol, max_iter=cfg.max_iter)
        if target is not None and target.family != "standard":
            h = conjugacy.retarget(h, target, grid=cfg.grid, tol=cfg.tol)
    except MaxIterExceeded as exc:
        if exc.log is not None:
            _atomic_write(cfg.out / "convergence.json", exc.log.to_json() + "\n")
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_QUANTITATIVE
    _atomic_write(cfg.out / "h.csv", funcspace.to_csv(h))
    _atomic_write(cfg.out / "convergence.json", log.to_json() + "\n")
    _atomic_write(cfg.out / "h.gp", _gnuplot_script("h.csv", "conjugation h"))
    ok = log.residual <= cfg.tol * 10 and all(r <= RATIO_BOUND for r in log.ratios)
    print(f"iterations: {log.iterations}  residual: {log.residual:.3e}")
    return EXIT_OK if ok else EXIT_QUANTITATIVE


def cmd_solve_fe(cfg: RunConfig) -> int:
    pair = families.build_family(cfg.descriptor)
    target = _resolve_target(cfg.target)
    cert = cauchy.solve_nonlinear(pair, target=target, grid=cfg.grid, tol=cfg.tol)
    _atomic_write(cfg.out / "certificate.json", cert.to_json() + "\n")
    _atomic_write(cfg.out / "solution.csv", funcspace.to_csv(cert.solution))
    _atomic_write(cfg.out / "solution.gp",
                  _gnuplot_script("solution.csv", "functional-equation solution"))
    print(f"fe_residual: {cert.fe_residual:.3e}  "
          f"nonlinearity_gap: {cert.nonlinearity_gap:.3e}"
          f"{'  (degenerate)' if cert.degenerate else ''}")
    if cert.degenerate and not cfg.allow_degenerate:
        return EXIT_QUANTITATIVE
    bound = 10.0 * (cert.solution.max_local_variation + cfg.tol)
    ok = cert.fe_residual <= max(bound, 1e-12)
    ok = ok and (cert.degenerate or cert.nonlinearity_gap > 0.0)
    return EXIT_OK if ok else EXIT_QUANTITATIVE


def cmd_probe(cfg: RunConfig) -> int:
    if cfg.h_csv is not None:
        if not cfg.h_csv.exists():
            raise UsageError(f"h CSV not found: {cfg.h_csv}")
        h = funcspace.from_csv(cfg.h_csv.read_text(), provenance="file")
    else:
        pair = families.build_family(cfg.descriptor)
        h, _ = conjugacy.conjugate_to_standard(
            pair, grid=cfg.grid, tol=cfg.tol, max_iter=cfg.max_iter)
    try:
        probe = analysis.difference_quotients(h, cfg.t0, cfg.k_min, cfg.k_max)
    except ScaleBelowGrid as exc:
        print(f"scale/grid mismatch: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _atomic_write(cfg.out / "probe.json", probe.to_json() + "\n")
    _atomic_write(cfg.out / "probe.csv", probe.to_csv())
    _atomic_write(cfg.out / "probe.gp",
                  _gnuplot_script("probe.csv", "difference quotients", "2:3"))
    print(f"holder_exponent: {probe.holder_exponent:.4f}")
    return EXIT_OK


def cmd_nonregular(cfg: RunConfig) -> int:
    if cfg.n == cfg.k or cfg.n < 1 or cfg.k < 1:
        raise UsageError("need distinct cell indices --n != --k, both >= 1")
    try:
        report = analysis.nonregular_experiment(
            cfg.n, cfg.k, grid=cfg.grid, m_max=cfg.m_max)
    except DyadicCheckFailure as exc:
        print(f"dyadic check failed: {exc}", file=sys.stderr)
        return EXIT_QUANTITATIVE
    _atomic_write(cfg.out / "experiment.json", report.to_json() + "\n")
    print(f"verdict: {report.verdict}")
    return EXIT_OK if report.verdict == "non-isomorphic" else EXIT_QUANTITATIVE


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pconfig",
        description="two-map interval systems: validation, conjugacy, "
                    "functional-equation solutions, regularity probes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="family descriptor JSON path")
        p.add_argument("--grid", type=int, default=4097)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--max-iter", type=int, default=200)
        p.add_argument("--out", default=".")

    p = sub.add_parser("validate", help="axiom checks and classification")
    common(p)

    p = sub.add_parser("conjugate", help="conjugation to a target pair")
    common(p)
    p.add_argument("--target", help="path | standard | quadratic:<c>")

    p = sub.add_parser("solve-fe", help="nonlinear functional-equation solution")
    common(p)
    p.add_argument("--target", help="path | standard | quadratic:<c>")
    p.add_argument("--allow-degenerate", action="store_true")

    p = sub.add_parser("probe", help="endpoint difference-quotient probe")
    common(p)
    p.add_argument("--t0", type=float, choices=(-1.0, 1.0), default=1.0)
    p.add_argument("--scales", default="4:10", help="kmin:kmax")
    p.add_argument("--h-csv", help="probe an existing solution CSV")

    p = sub.add_parser("nonregular", help="flat-point non-isomorphism experiment")
    common(p)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--m-max", type=int, default=8)

    return ap


def _config_from_args(args) -> RunConfig:
    opts = vars(args)
    h_csv = opts.get("h_csv")
    descriptor = None
    if args.command != "nonregular" and h_csv is None:
        descriptor = _load_descriptor(args.config)
    k_min, k_max = _parse_scales(args.scales) if "scales" in opts else (None, None)
    return RunConfig(
        command=args.command,
        descriptor=descriptor,
        grid=args.grid,
        tol=args.tol,
        max_iter=args.max_iter,
        out=Path(args.out),
        target=opts.get("target"),
        t0=opts.get("t0"),
        k_min=k_min,
        k_max=k_max,
        n=opts.get("n"),
        k=opts.get("k"),
        m_max=opts.get("m_max"),
        allow_degenerate=opts.get("allow_degenerate", False),
        h_csv=Path(h_csv) if h_csv else None,
    )


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
        cfg = _config_from_args(args)
        return _DISPATCH[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MaxIterExceeded, DyadicCheckFailure, InvalidPair) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUANTITATIVE
    except PConfigError as exc:
        # malformed descriptors, bad domains and the like
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
