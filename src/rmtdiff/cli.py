"""Command-line front end.

Subcommands and the options each accepts:
  sample   --n --m [--p --q --seed --samples --out]
  hist     the same, plus [--bins --grid lo:hi:count --workers --format]
  aed      --c | --n --m [--eta --count --out --format]
  moments  --c [--z ... --out]
  distance --c ... [--n --out]
  fig      --id [--out --fast --workers --format]
  verify   [--level --out]
With --grid, its count is the bin count (a differing --bins exits 2).
--workers is the number of independent random sub-streams, not of
threads: the output bytes depend on (seed, workers) alone, while the draws
are solved on every core the process may use.  RMTDIFF_SEED overrides the
master seed (useful in CI).  Exit codes: 0 success, 1 verification
failure, 2 usage error, 3 numerical or I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .acceptance import run_verify
from .asym_law import aed_grid
from .errors import RmtDiffError, UsageError
from .figures import FIGURE_IDS, run_fig
from .harness import default_meta, theory_overlay, write_hist, write_xy_csv
from .moments import (
    absolute_moment,
    distance_to_mixed_asymptotic,
    moment_via_quadrature,
    operator_norm_asymptotic,
    trace_distance_asymptotic,
)
from .montecarlo import difference_spectra
from .sampling import EnsembleParams
from .svgplot import render_xy

_SEED_ENV = "RMTDIFF_SEED"


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither nan nor +-inf."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0 (dimension ratios and weights)."""
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _grid(text: str) -> tuple[float, float, int]:
    """argparse type: lo:hi:count with finite lo < hi and count >= 2."""
    try:
        lo_s, hi_s, n_s = text.split(":")
        count = int(n_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be lo:hi:count, got {text!r}") from None
    lo, hi = _finite_float(lo_s), _finite_float(hi_s)
    if not (lo < hi and count >= 2):
        raise argparse.ArgumentTypeError("grid requires lo < hi and count >= 2")
    return lo, hi, count


def _ensemble_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="kept dimension N")
    p.add_argument("--m", type=int, required=True, help="traced-out dimension M")
    p.add_argument("--p", type=_positive_float, default=1.0, help="weight of the first state")
    p.add_argument("--q", type=_positive_float, default=1.0, help="weight of the second state")
    p.add_argument("--seed", type=int, default=0, help="master seed (64-bit)")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--out", default=None, help="output file")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rmtdiff",
        description="Spectral statistics of differences of random density matrices.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="dump raw difference spectra")
    _ensemble_args(p)

    p = sub.add_parser("hist", help="histogram of rescaled spectra vs theory")
    _ensemble_args(p)
    p.add_argument("--bins", type=int, default=None, help="bin count (default 60)")
    p.add_argument("--grid", type=_grid, default=None,
                   help="lo:hi:count range and bin count (--grid=-3:3:61 for a negative lo)")
    p.add_argument("--workers", type=int, default=1,
                   help="independent random sub-streams (the output depends on it)")
    p.add_argument("--format", choices=("csv", "svg"), default="csv",
                   help="svg additionally renders a quick-look chart")

    p = sub.add_parser("aed", help="asymptotic density on a grid")
    p.add_argument("--c", type=_positive_float, default=None, help="dimension ratio N/M")
    p.add_argument("--eta", type=_positive_float, default=1.0, help="weight ratio q/p")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--count", type=int, default=6001)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "svg"), default="csv")

    p = sub.add_parser("moments", help="absolute moments: closed form vs quadrature")
    p.add_argument("--c", type=_positive_float, required=True)
    p.add_argument("--z", type=_finite_float, nargs="+", default=[0.5, 1.0, 2.0, 4.0])
    p.add_argument("--out", default=None)

    p = sub.add_parser("distance", help="asymptotic distance measures vs c")
    p.add_argument("--c", type=_positive_float, nargs="+", required=True)
    p.add_argument("--n", type=int, default=1, help="dimension for the operator norm")
    p.add_argument("--out", default=None)

    p = sub.add_parser("fig", help="reproduce a preset comparison dataset")
    p.add_argument("--id", required=True, choices=FIGURE_IDS)
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--fast", action="store_true", help="tenth of the samples")
    p.add_argument("--workers", type=int, default=1, help="independent random sub-streams")
    p.add_argument("--format", choices=("csv", "svg"), default="svg")

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--level", choices=("fast", "full"), default="full")
    p.add_argument("--out", default=None, help="machine-readable report path")
    return ap


def _check_counts(args, *names) -> None:
    """A count option below 1 is a usage error (exit 2), raised before any work."""
    for name in names:
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise UsageError(f"--{name} must be >= 1, got {value}")


def _params(args) -> EnsembleParams:
    """The ensemble of ``sample`` and ``hist``, after ``_check_counts``."""
    _check_counts(args, "n", "m", "samples", "workers")
    return EnsembleParams(
        n_small=args.n, m_large=args.m, weight_p=args.p, weight_q=args.q,
        seed=int(os.environ.get(_SEED_ENV) or args.seed),
    )


def _cmd_sample(args) -> int:
    params = _params(args)
    spectra = difference_spectra(params, args.samples, rescaled=True)
    out = args.out or "spectra.csv"
    draws, n = spectra.shape
    meta = default_meta(params, args.samples, 0, 1)
    del meta["bins"]
    write_xy_csv(
        out, "draw,k,x",
        [np.repeat(np.arange(draws), n), np.tile(np.arange(n), draws), spectra.ravel()],
        meta=meta,
    )
    print(f"wrote {out} ({spectra.size} eigenvalues, rescaled x = N*lambda)")
    return 0


def _cmd_hist(args) -> int:
    bins = 60 if args.bins is None else args.bins
    value_range = None
    if args.grid is not None:
        lo, hi, count = args.grid
        if args.bins not in (None, count):
            raise UsageError(f"--bins {args.bins} differs from the --grid count {count}")
        bins, value_range = count, (lo, hi)
    title = f"n={args.n} m={args.m} ({args.samples} samples)" if args.format == "svg" else None
    params = _params(args)
    files = write_hist(
        params, args.samples, bins, args.out or "hist.csv",
        workers=args.workers, value_range=value_range, svg_title=title,
    )
    for f in files:
        print(f"wrote {f}")
    # the exact law covers n <= 3 only at equal weights and n <= m
    if params.n_small <= 3 and not theory_overlay(params).label.startswith("exact"):
        print(f"hist: note: the theory column at n={params.n_small} is the asymptotic "
              "density, not the exact finite-n law", file=sys.stderr)
    return 0


def _cmd_aed(args) -> int:
    _check_counts(args, "n", "m", "count")
    if args.c is None:
        if args.n is None or args.m is None:
            print("aed: provide --c or both --n and --m", file=sys.stderr)
            return 2
        c = args.n / args.m
    else:
        c = args.c
    res = aed_grid(c, args.eta, count=args.count)
    out = args.out or "aed.csv"
    res.to_csv(out)
    print(
        f"wrote {out} (c={c:g}, eta={args.eta:g}, atom={res.atom_weight:.6g}, "
        f"x_plus={res.x_plus:.6g})"
    )
    if args.format == "svg":
        svg = os.path.splitext(out)[0] + ".svg"
        render_xy(svg, title=f"asymptotic density, c={c:g}, eta={args.eta:g}",
                  lines=[(res.grid, res.density, "royalblue")])
        print(f"wrote {svg}")
    return 0


def _cmd_moments(args) -> int:
    rows = []
    for z in args.z:
        closed = absolute_moment(z, args.c)
        quadv = moment_via_quadrature(z, args.c)
        rows.append((z, closed, quadv))
        print(f"m_{z:g}({args.c:g}) = {closed!r}  (quadrature {quadv!r})")
    if args.out:
        write_xy_csv(
            args.out, "z,closed_form,quadrature",
            [[r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]],
            meta={"c": "%.17g" % args.c},
        )
        print(f"wrote {args.out}")
    return 0


def _cmd_distance(args) -> int:
    _check_counts(args, "n")
    ctab, dtr, dop, dmix = [], [], [], []
    for c in args.c:
        ctab.append(c)
        dtr.append(trace_distance_asymptotic(c))
        dop.append(operator_norm_asymptotic(c, args.n))
        dmix.append(distance_to_mixed_asymptotic(c))
        print(
            f"c={c:g}: trace={dtr[-1]:.10g} opnorm(n={args.n})={dop[-1]:.10g} "
            f"to-mixed={dmix[-1]:.10g}"
        )
    if args.out:
        write_xy_csv(
            args.out, "c,trace_distance,operator_norm,distance_to_mixed",
            [ctab, dtr, dop, dmix], meta={"n": args.n},
        )
        print(f"wrote {args.out}")
    return 0


def _cmd_fig(args) -> int:
    files = run_fig(
        args.id, args.out, fast=args.fast, svg=(args.format == "svg"),
        workers=args.workers,
    )
    for f in files:
        print(f"wrote {f}")
    return 0


def _cmd_verify(args) -> int:
    return run_verify(args.level, args.out)


_DISPATCH = {
    "sample": _cmd_sample,
    "hist": _cmd_hist,
    "aed": _cmd_aed,
    "moments": _cmd_moments,
    "distance": _cmd_distance,
    "fig": _cmd_fig,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except RmtDiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
