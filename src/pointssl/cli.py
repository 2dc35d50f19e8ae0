"""Command-line interface.

Subcommands: align, gen-scenes, train-toy, gradcheck, sinkhorn, export-pca.
Exit codes: 0 success (warnings allowed), 1 configuration error or malformed
input file, 2 hard per-scene failure under --strict.  align, gen-scenes and
train-toy take --seed and --strict, which makes the seed required.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

logger = logging.getLogger("pointssl")


def _add_align(subparsers):
    p = subparsers.add_parser("align", help="align a directory of PLY scenes")
    p.add_argument("--input", required=True, help="directory of input .ply files")
    p.add_argument("--output", required=True, help="directory for aligned .ply files")
    p.add_argument("--config", help="JSON file of pipeline parameters")
    p.add_argument("--report", help="write the per-scene report JSON here")
    p.add_argument("--jobs", type=int, default=1, help="parallel scenes")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--strict", action="store_true",
                   help="exit 2 on any per-scene failure; requires --seed")


def _cmd_align(args) -> int:
    from .pipeline import PipelineConfig, cli_align

    overrides = {}
    if args.config:
        overrides = json.loads(Path(args.config).read_text())
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        config = PipelineConfig.from_dict(overrides)
    except (TypeError, ValueError) as exc:
        logger.error("bad pipeline config: %s", exc)
        return 1

    report = cli_align(args.input, args.output, config, jobs=args.jobs)
    if args.report:
        Path(args.report).write_text(report.to_json())
    for row in report.rows:
        status = "ERROR " + row.error if row.error else (
            f"plane={'yes' if row.plane_found else 'no'} "
            f"alpha={row.alpha:.4f} diag={row.final_diagonal:.3f}"
        )
        print(f"{row.name}: {status}")
    failed = report.num_failed
    if failed:
        logger.warning("%d of %d scenes failed", failed, len(report.rows))
        if args.strict:
            return 2
    return 0


def _add_gen_scenes(subparsers):
    p = subparsers.add_parser("gen-scenes", help="generate synthetic annotated rooms")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--points", type=int, default=20000)
    p.add_argument("--density", type=float, default=500.0)
    p.add_argument("--tilt-max", type=float, default=0.0, help="max tilt in degrees")
    p.add_argument("--ghost-fraction", type=float, default=0.0)
    p.add_argument("--outlier-fraction", type=float, default=0.0)
    p.add_argument("--holes", type=int, default=0)
    p.add_argument("--extents", type=float, nargs=3, default=(4.0, 3.0, 2.5))
    p.add_argument("--strict", action="store_true")


def _cmd_gen_scenes(args) -> int:
    from .ply import write_ply
    from .rng import make_rng
    from .scenes import SceneSpec, generate_room

    if args.count < 0:
        raise ValueError(f"--count must be non-negative, got {args.count}")
    if not 0.0 <= args.tilt_max <= 180.0:
        raise ValueError(f"--tilt-max must lie in [0, 180], got {args.tilt_max}")
    seed = 0 if args.seed is None else args.seed
    approx_surface = 2 * args.extents[0] * args.extents[1] + \
        2 * (args.extents[0] + args.extents[1]) * args.extents[2]
    # Checks the options, the seed included, before the seed draws any tilt.
    base = SceneSpec(
        extents=tuple(args.extents),
        surface_density=args.density,
        ghost_fraction=args.ghost_fraction,
        outlier_count=int(args.outlier_fraction * args.density * approx_surface),
        hole_count=args.holes,
        max_points=args.points,
        seed=seed,
    )
    rng = make_rng(seed, 99)
    specs = [replace(base, tilt_degrees=float(rng.uniform(0.0, args.tilt_max)), seed=seed + i)
             for i in range(args.count)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, spec in enumerate(specs):
        cloud, truth = generate_room(spec)
        write_ply(out / f"scene_{i:04d}.ply", cloud)
        sidecar = {
            "up_axis": truth.up_axis.tolist(),
            "diagonal": truth.diagonal,
            "scale": truth.scale,
            "tilt_rotation": truth.tilt_rotation.tolist(),
            "labels": truth.labels.tolist(),
        }
        (out / f"scene_{i:04d}.json").write_text(json.dumps(sidecar))
        print(f"scene_{i:04d}: {len(cloud)} points, tilt {spec.tilt_degrees:.2f} deg")
    return 0


def _add_train_toy(subparsers):
    p = subparsers.add_parser("train-toy", help="run the toy pre-training loop")
    p.add_argument("--config", help="JSON file mirroring TrainConfig")
    p.add_argument("--scenes", required=True, help="directory of .ply scenes")
    p.add_argument("--out", required=True, help="run directory for metrics and checkpoint")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--strict", action="store_true")


def _cmd_train_toy(args) -> int:
    from .ply import read_ply
    from .trainer import TrainConfig, run_training

    overrides = {}
    if args.config:
        overrides = json.loads(Path(args.config).read_text())
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        config = TrainConfig.from_dict(overrides)
    except (TypeError, ValueError) as exc:
        logger.error("bad train config: %s", exc)
        return 1

    scene_files = sorted(Path(args.scenes).glob("*.ply"))
    if not scene_files:
        logger.error("no .ply scenes under %s", args.scenes)
        return 1
    scenes = [read_ply(path)[0] for path in scene_files]

    _, records = run_training(config, scenes, out_dir=args.out)
    last = records[-1]
    print(
        f"finished {len(records)} steps: total={last.total:.4f} "
        f"entropy={last.prototype_entropy:.3f} (max {np.log(config.num_prototypes):.3f})"
    )
    return 0


def _add_gradcheck(subparsers):
    p = subparsers.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)


def _cmd_gradcheck(args) -> int:
    from .gradcheck import run_gradcheck

    report = run_gradcheck(trials=args.trials, seed=args.seed)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["passed"] else 3


def _add_sinkhorn(subparsers):
    p = subparsers.add_parser("sinkhorn", help="normalize a CSV logits matrix")
    p.add_argument("--input", required=True, help="CSV matrix of logits (B rows, K columns)")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--softmax", action="store_true", help="plain row softmax instead")


def _cmd_sinkhorn(args) -> int:
    from .sinkhorn import sinkhorn_normalize, softmax_rows

    logits = np.loadtxt(args.input, delimiter=",", ndmin=2)
    if args.softmax:
        result = softmax_rows(logits, args.temperature)
    else:
        result = sinkhorn_normalize(logits, args.temperature, args.iterations)
    for row in result:
        print(",".join(f"{v:.10g}" for v in row))
    return 0


def _add_export_pca(subparsers):
    p = subparsers.add_parser("export-pca", help="write a PLY colored by embedding PCA")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scene", required=True, help="input .ply scene")
    p.add_argument("--out", required=True, help="output colored .ply")


def _cmd_export_pca(args) -> int:
    from .model import encode, load_model
    from .pipeline import export_pca
    from .ply import read_ply

    params, _, _ = load_model(args.checkpoint)
    cloud, _ = read_ply(args.scene)
    export_pca(encode(params, cloud), cloud, args.out)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "align": _cmd_align,
    "gen-scenes": _cmd_gen_scenes,
    "train-toy": _cmd_train_toy,
    "gradcheck": _cmd_gradcheck,
    "sinkhorn": _cmd_sinkhorn,
    "export-pca": _cmd_export_pca,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(prog="pointssl")
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_align(subparsers)
    _add_gen_scenes(subparsers)
    _add_train_toy(subparsers)
    _add_gradcheck(subparsers)
    _add_sinkhorn(subparsers)
    _add_export_pca(subparsers)
    args = parser.parse_args(argv)

    if getattr(args, "strict", False) and getattr(args, "seed", None) is None:
        logger.error("--strict requires an explicit --seed")
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (FileNotFoundError, ValueError) as exc:  # PLY, JSON, checkpoint and logits errors
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
