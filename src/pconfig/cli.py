"""Command-line entry point.

Subcommands
-----------
``validate``    axiom checks and classification of a family descriptor
``conjugate``   conjugation of a family to a target, with the solver log
``solve-fe``    nonlinear solution of the additive functional equation
``probe``       endpoint difference-quotient probe of a computed solution
``nonregular``  flat-point non-isomorphism experiment

Exit codes: 0 success, 1 quantitative failure, 2 usage or config error.
Exit 1 is read off each subcommand's result (and a pair that fails
validation in ``solve-fe``); exit 2 comes only from :func:`main`, for any
other library error, with one ``error:`` line.
An input file that cannot be read as UTF-8 text, and an output directory
that cannot be created or written, are usage errors naming the path.

Reports are JSON, function samples are CSV (17 significant digits), and
each sampled output gets a plain-text gnuplot script next to it; outputs
are byte-deterministic for identical configs.  All files are written
atomically (temp file then rename); the ``--out`` directory is created
with the first file, so a command refused before it writes leaves none.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

from . import analysis, cauchy, conjugacy, families, funcspace
from .errors import BadArgument, InvalidPair, PConfigError

EXIT_OK = 0
EXIT_QUANTITATIVE = 1
EXIT_USAGE = 2


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def _atomic_write(path: Path, text: str):
    """Write `text` to `path` through a temp file and a rename, creating
    the directory first."""
    out = path.parent
    try:
        out.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=out, prefix=path.name, suffix=".tmp")
        try:
            # no newline translation: h.csv's rows end in \n on every
            # platform, the only line end from_csv reads
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise BadArgument(
            f"cannot write to output directory {out}: {exc.strerror}") from exc


def _read_text(path: str) -> str:
    """The UTF-8 text of an input file, its line ends as written."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except OSError as exc:
        raise BadArgument(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise BadArgument(f"cannot read {path}: not UTF-8 text") from exc


def _load_family(path: str | None) -> families.MapPair:
    """The pair a family descriptor file describes."""
    if path is None:
        raise BadArgument("--config <descriptor.json> is required")
    return families.build_family(_read_text(path))


def _resolve_target(spec: str | None) -> families.MapPair | None:
    """--target accepts 'standard', 'quadratic:<c>' or a descriptor path."""
    if spec is None:
        return None
    if spec == "standard":
        return families.standard_pair()
    if spec.startswith("quadratic:"):
        try:  # read as argparse reads --t0
            c = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise BadArgument(
                f"--target expects quadratic:<c>, got {spec!r}") from exc
        return families.build_family({"family": "quadratic", "c": c})
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
        raise BadArgument(f"--scales expects kmin:kmax, got {text!r}") from exc
    return k_min, k_max


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_validate(args) -> int:
    pair = _load_family(args.config)
    report = families.validate(pair, grid=args.grid)
    _atomic_write(args.out / "validation.json", report.to_json() + "\n")
    print(f"classification: {report.classification}")
    return EXIT_OK if report.classification != "invalid" else EXIT_QUANTITATIVE


def cmd_conjugate(args) -> int:
    source = _load_family(args.config)
    target = _resolve_target(args.target)
    h, log = conjugacy.conjugate(source, target or families.standard_pair(),
                                 grid=args.grid)
    _atomic_write(args.out / "h.csv", funcspace.to_csv(h))
    _atomic_write(args.out / "convergence.json", log.to_json() + "\n")
    _atomic_write(args.out / "h.gp", _gnuplot_script("h.csv", "conjugation h"))
    print(f"residual: {log.residual:.3e}  nodes: {log.grid}")
    # the labels increase strictly by construction, so only the composition
    # for a non-standard target can round adjacent values together here
    return EXIT_OK if h.is_strictly_increasing() else EXIT_QUANTITATIVE


def cmd_solve_fe(args) -> int:
    pair = _load_family(args.config)
    target = _resolve_target(args.target)
    cert = cauchy.solve_nonlinear(pair, target=target, grid=args.grid)
    _atomic_write(args.out / "certificate.json", cert.to_json() + "\n")
    _atomic_write(args.out / "solution.csv", funcspace.to_csv(cert.solution))
    _atomic_write(args.out / "solution.gp",
                  _gnuplot_script("solution.csv", "functional-equation solution"))
    print(f"fe_residual: {cert.fe_residual:.3e}  "
          f"nonlinearity_gap: {cert.nonlinearity_gap:.3e}"
          f"{'  (degenerate)' if cert.degenerate else ''}")
    bound = 10.0 * cert.solution.max_local_variation
    ok = cert.fe_residual <= max(bound, 1e-12) and cert.nonlinearity_gap > 0.0
    return EXIT_OK if ok else EXIT_QUANTITATIVE


def cmd_probe(args) -> int:
    k_min, k_max = _parse_scales(args.scales)
    analysis.check_probe(args.t0, k_min, k_max)
    if args.h_csv is not None:
        h = funcspace.from_csv(_read_text(args.h_csv))
    else:
        pair = _load_family(args.config)
        h, _ = conjugacy.conjugate_to_standard(pair, grid=args.grid)
    probe = analysis.difference_quotients(h, args.t0, k_min, k_max)
    _atomic_write(args.out / "probe.json", probe.to_json() + "\n")
    _atomic_write(args.out / "probe.csv", probe.to_csv())
    _atomic_write(args.out / "probe.gp",
                  _gnuplot_script("probe.csv", "difference quotients", "2:3"))
    print(f"holder_exponent: {probe.holder_exponent:.4f}")
    return EXIT_OK


def cmd_nonregular(args) -> int:
    report = analysis.nonregular_experiment(args.n, args.k, grid=args.grid)
    _atomic_write(args.out / "experiment.json", report.to_json() + "\n")
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
    "--out": {"type": Path, "default": "."},
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

    command("solve-fe", "nonlinear functional-equation solution",
            "--config", "--grid", "--out", "--target")

    p = command("probe", "endpoint difference-quotient probe",
                "--config", "--grid", "--out")
    p.add_argument("--t0", type=float, default=1.0, help="1 or -1")
    p.add_argument("--scales", default="4:10", help="kmin:kmax")
    p.add_argument("--h-csv", help="probe an existing solution CSV")

    p = command("nonregular", "flat-point non-isomorphism experiment",
                "--grid", "--out")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=3)

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
        return _DISPATCH[args.command](args)
    except PConfigError as exc:
        # a pair that fails validation is a result; every other error is
        # an input the command cannot run with
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InvalidPair):
            return EXIT_QUANTITATIVE
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
