"""Command-line front end: ``fidreg <subcommand>``.

Exit codes: 0 success, 1 domain error (insufficient markers, no acceptable
match, degenerate geometry), 2 usage or input-format error.  Every failure
prints exactly one ``error: ...`` line on stderr; progress notes also go to
stderr so stdout stays clean for redirection.

The argparse tree is built once per process, on the first ``main()`` call,
and reused: ``parse_args`` fills a fresh namespace each time, so no option
carries over from one call to the next. The handlers look the library
functions they call up through this module at call time, so rebinding
``fidreg.cli.register`` (or ``read_volume``, ``marching_cubes``, ...) takes
effect on the next call.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .bench import (
    METHODS,
    SceneSpec,
    generate_scene,
    parse_scene_grid,
    run_benchmark,
    summarize,
    write_records_csv,
    write_summary_json,
)
from .config import format_float, parse_number, write_json
from .errors import DomainError, FidregError, FormatError
from .icp import icp_register
from .markers import read_marker_csv, write_marker_csv
from .mesh import marching_cubes, write_obj, write_stl
from .rigid import transform_to_json_dict
from .segmentation import SegmentationConfig, markers_from_components, segment_components
from .triangles import RegistrationConfig, TriangleTable, register
from .volume import read_volume

SKIN_ISO_HU = -300.0  # default air/skin boundary


class _Parser(argparse.ArgumentParser):
    """argparse that keeps the error contract: one line on stderr, exit 2."""

    def error(self, message):
        raise FormatError(message)


def _finite_float(text: str) -> float:
    try:
        value = parse_number(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _plain_int(text: str) -> int:
    try:
        return parse_number(text, int)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None


def _join_iso_value(argv: list[str]) -> list[str]:
    """Pass ``--iso VALUE`` on as ``--iso=VALUE`` when VALUE starts with '-'.

    argparse takes a value such as ``-inf`` or ``-1e999``, which is not a
    plain negative number, for an option and fails with "expected one
    argument"; joined to its option it reaches ``_finite_float``.
    """
    joined: list[str] = []
    for token in argv:
        if joined[-1:] == ["--iso"] and token.startswith("-") and not token.startswith("--"):
            joined[-1] = f"--iso={token}"
        else:
            joined.append(token)
    return joined


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _registration_inputs(args):
    """``(ct, device)`` for register and icp; each CSV must hold its frame."""
    markers = []
    for path, frame in ((args.ct, "ct"), (args.device, "device")):
        found = read_marker_csv(path)
        if found.frame != frame:
            raise FormatError(f"{path}: expected frame {frame!r}, found {found.frame!r}")
        markers.append(found)
    return markers


def cmd_segment(args) -> int:
    # The config first: a malformed one fails before the volume is read.
    config = SegmentationConfig.from_text(_read_text(args.config))
    volume = read_volume(args.volume)
    components = segment_components(volume, config)
    markers = markers_from_components(components, volume)
    for component, point in zip(components, markers.points):
        print(
            f"marker {component.label}: {component.voxel_count} voxels, "
            f"{format_float(component.volume_mm3(volume.spacing))} mm^3 at "
            f"({format_float(point[0])}, {format_float(point[1])}, {format_float(point[2])})",
            file=sys.stderr,
        )
    print(f"segmented {len(markers)} markers", file=sys.stderr)
    write_marker_csv(markers, args.out)
    return 0


def cmd_mesh(args) -> int:
    out = str(args.out)
    suffix = out.lower()[-4:]
    writers = {".stl": write_stl, ".obj": write_obj}
    if suffix not in writers:
        raise FormatError(f"{out}: mesh output must end in .stl or .obj")
    volume = read_volume(args.volume)
    mesh = marching_cubes(volume, args.iso)
    writers[suffix](mesh, out)
    print(f"meshed {mesh.n_vertices} vertices, {mesh.n_faces} faces", file=sys.stderr)
    return 0


def cmd_register(args) -> int:
    ct, device = _registration_inputs(args)
    config = (
        RegistrationConfig.from_text(_read_text(args.config)) if args.config else RegistrationConfig()
    )
    table = TriangleTable()
    table.insert_marker(device.points)  # file order
    result = register(ct, table, config)
    write_json(result.to_json_dict(), args.out)
    print(
        f"registered: rmsd {format_float(result.rmsd)} mm, "
        f"flipped {'true' if result.flipped else 'false'}",
        file=sys.stderr,
    )
    return 0


def cmd_icp(args) -> int:
    ct, device = _registration_inputs(args)
    result = icp_register(ct, device)
    write_json(result.to_json_dict(), args.out)
    print(
        f"icp: rmsd {format_float(result.rmsd)} mm after "
        f"{result.iterations_used} iterations, "
        f"converged {'true' if result.converged else 'false'}",
        file=sys.stderr,
    )
    return 0


def cmd_simulate(args) -> int:
    spec = SceneSpec.from_text(_read_text(args.spec))
    ct, device, truth = generate_scene(spec)
    write_marker_csv(ct, f"{args.out_prefix}_ct.csv")
    write_marker_csv(device, f"{args.out_prefix}_device.csv")
    write_json(transform_to_json_dict(truth), f"{args.out_prefix}_truth.json")
    print(
        f"simulated {len(ct)} ct markers -> {len(device)} device markers "
        f"(seed {spec.seed})",
        file=sys.stderr,
    )
    return 0


def cmd_bench(args) -> int:
    grid = parse_scene_grid(_read_text(args.grid))
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    records = run_benchmark(grid, methods=methods, trials_per_cell=args.trials)
    write_records_csv(records, args.out_csv)
    write_summary_json(summarize(records), args.out_json)
    failures = sum(1 for r in records if r.status != "ok")
    print(
        f"bench: {len(records)} trials over {len(grid)} scene(s), "
        f"{failures} failure(s)",
        file=sys.stderr,
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``fidreg`` parser, built on the first call and shared after it."""
    parser = _Parser(
        prog="fidreg",
        description="Fiducial-marker registration pipeline: segment CT markers, "
        "mesh surfaces, and align CT to optically tracked marker sets.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("segment", help="segment fiducial markers out of a CT volume")
    p.add_argument("volume", help="input .vol file")
    p.add_argument("config", help="segmentation config (key = value text)")
    p.add_argument("out", help="output marker CSV")
    p.set_defaults(handler=cmd_segment)

    p = sub.add_parser("mesh", help="extract an iso-surface as STL or OBJ")
    p.add_argument("volume", help="input .vol file")
    p.add_argument("out", help="output mesh (.stl binary or .obj ASCII)")
    p.add_argument(
        "--iso",
        type=_finite_float,
        default=SKIN_ISO_HU,
        help=f"iso level in HU (default {SKIN_ISO_HU:g}, the air/skin boundary)",
    )
    p.set_defaults(handler=cmd_mesh)

    for name, handler, about in (
        ("register", cmd_register, "triangle-match CT markers onto device markers"),
        ("icp", cmd_icp, "iterative-closest-point baseline registration from the identity"),
    ):
        p = sub.add_parser(name, help=about)
        p.add_argument("ct", help="CT marker CSV (frame ct)")
        p.add_argument("device", help="device marker CSV (frame device)")
        p.add_argument("out", help="output transform JSON")
        p.set_defaults(handler=handler)
        if name == "register":
            p.add_argument("--config", help="registration config (key = value text)")

    p = sub.add_parser("simulate", help="generate one synthetic scene from a spec")
    p.add_argument("spec", help="scene spec (key = value text)")
    p.add_argument("out_prefix", help="writes <prefix>_ct.csv, _device.csv, _truth.json")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("bench", help="run the Monte-Carlo benchmark grid")
    p.add_argument("grid", help="scene-spec blocks separated by blank lines")
    p.add_argument("out_csv", help="per-trial records CSV")
    p.add_argument("out_json", help="per-cell summary JSON")
    p.add_argument("--trials", type=_plain_int, default=10, help="trials per cell (default 10)")
    p.add_argument(
        "--methods",
        default=",".join(METHODS),
        help=f"comma-separated subset of {{{','.join(METHODS)}}}",
    )
    p.set_defaults(handler=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(
                _join_iso_value(sys.argv[1:] if argv is None else list(argv))
            )
        except SystemExit as exc:  # --help and friends exit argparse directly
            return int(exc.code or 0)
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FidregError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
