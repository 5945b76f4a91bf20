"""Command line interface: train / predict / eval / gradcheck / summary.

Each subcommand takes only the options it reads: train, predict and
summary build a config from --config and repeatable --set overrides, train
alone takes --seed, and eval and gradcheck read no config at all.

Exit codes: 0 success, 1 usage or config error, 2 data error (unreadable
files, malformed images, checkpoint mismatch), 3 numeric failure (NaN loss
or a gradient check beyond tolerance).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import gradcheck as gradcheck_mod
from . import infer, metrics, netpbm, summary
from .config import ConfigError, check_input_side, load_config
from .data import check_channels, paired_ids
from .network import SegmentationModel
from .params import load_checkpoint
from .tensor import NumericError
from .train import run_training

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the declared contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_config(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                   help="dotted config override, value parsed as JSON")


def _check_out_dirs(*paths) -> None:
    """Raise naming the first output file path whose directory is missing
    or that is a directory."""
    for path in filter(None, paths):
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(f"{path}: parent directory does not exist")
        if os.path.isdir(path):
            raise IsADirectoryError(f"{path}: is a directory")


def cmd_train(args) -> int:
    seeds = [] if args.seed is None else [f"train.seed={args.seed}",
                                          f"model.seed={args.seed}"]
    cfg = load_config(args.config, args.set + seeds)
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        raise NotADirectoryError(f"{args.out}: exists and is not a directory")
    result = run_training(cfg, args.out)
    print(f"{result.steps} steps, final loss {result.final_loss:.6f}, "
          f"best {result.best_loss:.6f}")
    print(f"log: {result.csv_path}")
    print(f"checkpoints: {result.best_path} {result.last_path}")
    return EXIT_OK


def cmd_predict(args) -> int:
    cfg = load_config(args.config, args.set)
    image = netpbm.read_image(args.image)
    check_channels(image, cfg.model.encoder.input_channels, args.image)
    _check_out_dirs(args.out, args.prob)
    state = load_checkpoint(args.checkpoint)  # a missing file fails here
    model = SegmentationModel(cfg.model)
    model.store.load_state(state)
    mask, prob = infer.predict_mask(
        model, image, patch=cfg.data.patch, stride=cfg.data.stride,
        threshold=cfg.eval.threshold)
    netpbm.write_mask(args.out, mask)
    if args.prob:
        netpbm.write_image(args.prob, prob)
    print(f"wrote {args.out} ({int(mask.sum())} foreground pixels)")
    return EXIT_OK


def cmd_eval(args) -> int:
    _check_out_dirs(args.out)
    entries = []
    for sid in paired_ids(args.pred, ".pgm", args.gt, ".pgm"):
        entries.append((sid,
                        netpbm.read_mask(os.path.join(args.pred, sid + ".pgm")),
                        netpbm.read_mask(os.path.join(args.gt, sid + ".pgm"))))
    rep = metrics.report(entries)
    text = json.dumps(rep, indent=2)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = gradcheck_mod.run_suite(include_model=not args.skip_model)
    width = max(len(r["name"]) for r in results)
    failed = 0
    for r in results:
        status = "pass" if r["passed"] else "FAIL"
        print(f"{r['name']:<{width}}  {r['kind']:<9}  "
              f"{r['max_rel_err']:.3e}  tol {r['tol']:.0e}  {status}")
        failed += not r["passed"]
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_NUMERIC if failed else EXIT_OK


def cmd_summary(args) -> int:
    cfg = load_config(args.config, args.set)
    hw = cfg.data.patch
    if args.input_size is not None:
        check_input_side(cfg.model, args.input_size, "--input-size")
        hw = args.input_size
    _check_out_dirs(args.json)
    rep = summary.summary_report(cfg.model, input_hw=None if args.no_macs else hw)
    print(summary.format_table(rep))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(rep, f, indent=2)
            f.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mcads",
                     description="encoder-decoder segmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("train", help="train on a dataset or synthetic data")
    _add_config(p)
    p.add_argument("--seed", type=int, help="override model and train seeds")
    p.add_argument("--out", default="checkpoints",
                   help="output directory (default: checkpoints)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="segment one image")
    _add_config(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True, help="output mask (.pgm)")
    p.add_argument("--prob", help="also write the probability map (.pgm)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True, help="directory of predicted .pgm")
    p.add_argument("--gt", required=True, help="directory of reference .pgm")
    p.add_argument("--out", help="write the JSON report here as well")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--skip-model", action="store_true",
                   help="skip the micro-model case (faster)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("summary", help="parameter and MAC accounting")
    _add_config(p)
    p.add_argument("--input-size", type=int,
                   help="square input extent for the MAC estimate")
    p.add_argument("--no-macs", action="store_true",
                   help="skip the forward pass, report parameters only")
    p.add_argument("--json", help="write the machine-readable report here")
    p.set_defaults(func=cmd_summary)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    # NetpbmError and CheckpointMismatch too; MemoryError: too large to allocate
    except (OSError, ValueError, MemoryError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
