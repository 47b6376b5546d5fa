"""Command-line access: run / report / theory / parse subcommands."""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

from . import bench, theory


def _cmd_run(args):
    cfg = bench.ExperimentConfig.from_yaml(args.config)
    overrides = {"master_seed": args.seed, "jobs": args.jobs, "out_dir": args.out}
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    records = bench.run_experiment(cfg)
    failed = sum(r.failed for r in records)
    print(f"{len(records)} trials completed, {failed} failed")
    if cfg.out_dir:
        print(f"records written to {Path(cfg.out_dir) / 'records.csv'}")
    return 0


def _cmd_report(args):
    records = bench.read_records(args.records)
    rep = bench.report(records)
    print(rep["markdown"])
    return 0


def _cmd_parse(args):
    ds = bench.load_dataset(args.file)
    print(f"{ds.name}: {ds.n_instances} instances, "
          f"{sum(a.kind == 'numeric' for a in ds.schema)} numeric + "
          f"{sum(a.kind == 'nominal' for a in ds.schema)} nominal attributes, "
          f"positive class {ds.positive_label!r} ({ds.n_pos} instances), "
          f"IR {ds.imbalance_ratio:.2f}")
    return 0


def _write_curve(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {path}")


def _cmd_theory_boundary1d(args):
    model = theory.model_from_config(args.model) if args.model else \
        theory.example_uniform_model()
    rows = theory.sweep_boundary_1d(model, args.steps)
    b_star, gm_star = theory.best_boundary_1d(model)
    print(f"best boundary b* = {b_star}, GM* = {gm_star:.6f}")
    if args.out:
        _write_curve(args.out, ["b", "tpr", "tnr", "gm"], rows)
    return 0


def _cmd_theory_demo(args):
    gms = theory.cb_bb_demo(seed=args.seed, re_trials=args.re_trials,
                            include_re=not args.no_re)
    print(f"GM(classical Bayes) = {gms['cb']:.4f}")
    print(f"GM(balanced Bayes)  = {gms['bb']:.4f}")
    if "re" in gms:
        print(f"GM(random editing)  = {gms['re']:.4f}")
    return 0


def _cmd_theory_exhaustive(args):
    points, labels, model = theory.nonmonotone_example()
    per_card, (best, best_gm) = theory.exhaustive_search(
        points, labels, model, seed=args.seed)
    full_gm = per_card[len(labels)][1]
    rows = [[k, per_card[k][1]] for k in sorted(per_card)]
    for k, g in rows:
        print(f"cardinality {k:2d}: best GM = {g:.4f}")
    print(f"full set GM = {full_gm:.4f}; global best GM = {best_gm:.4f} "
          f"at cardinality {len(best)}")
    if args.out:
        _write_curve(args.out, ["cardinality", "best_gm"], rows)
    return 0


def _cmd_theory_lemma(args):
    total_violations = theory.lemma_sweep(args.configs, args.probes, args.seed)
    print(f"{args.configs} configurations x {args.probes} probes: "
          f"{total_violations} inclusion violations")
    return 0 if total_violations == 0 else 1


def _cmd_theory_prop1(args):
    confirmed, checked = theory.prop1_check(args.cases, args.samples, args.seed)
    print(f"{confirmed}/{checked} predicted improvements confirmed")
    return 0


def _at_least(low):
    """argparse type: an integer >= ``low``; argparse names the flag in its error."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gmsel",
                                     description="Instance selection for "
                                     "imbalanced data with 1-NN and G-mean")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a benchmark experiment")
    p_run.add_argument("--config", required=True, help="YAML experiment config")
    p_run.add_argument("--seed", type=_at_least(0), default=None)
    p_run.add_argument("--jobs", type=_at_least(1), default=None)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("report", help="summarise a records CSV")
    p_rep.add_argument("--records", required=True)
    p_rep.set_defaults(func=_cmd_report)

    p_parse = sub.add_parser("parse", help="validate a KEEL .dat or CSV file")
    p_parse.add_argument("file")
    p_parse.set_defaults(func=_cmd_parse)

    p_theory = sub.add_parser("theory", help="numerical verification lab")
    tsub = p_theory.add_subparsers(dest="theory_command", required=True)

    t1 = tsub.add_parser("boundary1d", help="exact 1D split-point analysis, "
                         "swept over the densities' breakpoint range")
    t1.add_argument("--model", default=None, help="density model YAML")
    t1.add_argument("--steps", type=_at_least(1), default=101)
    t1.add_argument("--out", default=None, help="CSV curve output")
    t1.set_defaults(func=_cmd_theory_boundary1d)

    t2 = tsub.add_parser("demo-gaussian",
                         help="classical vs balanced Bayes vs random editing")
    t2.add_argument("--seed", type=_at_least(0), default=0)
    t2.add_argument("--re-trials", type=_at_least(1), default=10_000)
    t2.add_argument("--no-re", action="store_true")
    t2.set_defaults(func=_cmd_theory_demo)

    t3 = tsub.add_parser("exhaustive", help="per-cardinality best-GM curve")
    t3.add_argument("--seed", type=_at_least(0), default=0)
    t3.add_argument("--out", default=None, help="CSV curve output")
    t3.set_defaults(func=_cmd_theory_exhaustive)

    t4 = tsub.add_parser("lemma-check", help="cell-inclusion verification")
    t4.add_argument("--configs", type=_at_least(1), default=100)
    t4.add_argument("--probes", type=_at_least(1), default=10_000)
    t4.add_argument("--seed", type=_at_least(0), default=0)
    t4.set_defaults(func=_cmd_theory_lemma)

    t5 = tsub.add_parser("prop1", help="removal-improvement verification")
    t5.add_argument("--cases", type=_at_least(1), default=200)
    # the floor that asymptotic_gm enforces
    t5.add_argument("--samples", type=_at_least(1000), default=10_000)
    t5.add_argument("--seed", type=_at_least(0), default=0)
    t5.set_defaults(func=_cmd_theory_prop1)

    args = parser.parse_args(argv)
    # glibc keeps up to 32 MB of freed memory, so the theory lab's arrays of
    # one shape fault no pages in again (`theory prop1`: 333k minor faults
    # down to 7k).  Not for `run`: its pool workers peaked 6.5 MB higher.
    import ctypes
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform != "win32" else None
    if args.command == "theory" and mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # a missing or bad input file: one line
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
