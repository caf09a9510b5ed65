"""Build a synthetic CT phantom and walk the whole pipeline over it.

Writes everything to --out-dir (default demo_out/):
  phantom.vol      synthetic volume: 3 bright marker cubes in soft tissue
  markers.csv      segmented CT marker centroids
  skin.stl         iso-surface of the phantom
  scene_*.csv      a simulated optical view of those markers (known pose)
  registered.json  triangle-match result
  icp.json         ICP baseline from identity start, for comparison

Usage:
    python scripts/demo_pipeline.py --out-dir demo_out --seed 7
"""

import argparse
import json
from pathlib import Path

import numpy as np

from fidreg.config import format_float
from fidreg.icp import icp_register
from fidreg.markers import MarkerSet, write_marker_csv
from fidreg.mesh import marching_cubes, write_stl
from fidreg.rigid import RigidTransform, compose, inverse, rotation_angle
from fidreg.rng import SplitMix64
from fidreg.segmentation import SegmentationConfig, segment_markers
from fidreg.triangles import TriangleTable, register
from fidreg.volume import Volume, write_volume


def build_phantom() -> Volume:
    vox = np.full((64, 64, 64), 40, dtype=np.int16)  # soft tissue
    for i, j, k in [(8, 10, 6), (44, 12, 30), (20, 46, 44)]:
        vox[i : i + 3, j : j + 3, k : k + 3] = 3200  # radio-opaque cubes
    return Volume(
        dims=(64, 64, 64),
        spacing=(0.75, 0.75, 1.25),
        origin=(-24.0, -24.0, -40.0),
        voxels=vox,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="demo_out")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--noise", type=float, default=0.2, help="device noise sigma, mm")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    volume = build_phantom()
    write_volume(volume, out / "phantom.vol")

    config = SegmentationConfig(expected_mm3=27 * 0.75 * 0.75 * 1.25)
    ct_markers = segment_markers(volume, config)
    write_marker_csv(ct_markers, out / "markers.csv")
    print(f"segmented {len(ct_markers)} markers from the phantom")

    mesh = marching_cubes(volume, iso_hu=1500.0)
    write_stl(mesh, out / "skin.stl")
    print(f"meshed marker surfaces: {mesh.n_vertices} vertices, {mesh.n_faces} faces")

    # pose the markers as an optical tracker would see them
    rng = SplitMix64(args.seed)
    truth = RigidTransform(
        rng.rotation(), (rng.uniforms(3) - 0.5) * 100.0
    )
    noise = args.noise * rng.normals(3 * len(ct_markers)).reshape(-1, 3)
    device = MarkerSet("device", truth.apply(ct_markers.points) + noise)
    write_marker_csv(ct_markers, out / "scene_ct.csv")
    write_marker_csv(device, out / "scene_device.csv")

    table = TriangleTable()
    table.insert_marker(device.points)
    result = register(ct_markers, table)
    with open(out / "registered.json", "w") as fh:
        json.dump(result.to_json_dict(), fh, indent=2)
    rot_err = rotation_angle(compose(result.transform, inverse(truth)).rotation)
    trans_err = np.linalg.norm(result.transform.translation - truth.translation)
    print(
        f"triangle match: rmsd {format_float(result.rmsd)} mm, "
        f"pose error {1e3 * rot_err:.3f} mrad / {trans_err:.4f} mm"
    )

    icp = icp_register(ct_markers, device)
    with open(out / "icp.json", "w") as fh:
        json.dump(icp.to_json_dict(), fh, indent=2)
    icp_rot = rotation_angle(compose(icp.transform, inverse(truth)).rotation)
    print(
        f"icp from identity: rmsd {format_float(icp.rmsd)} mm after "
        f"{icp.iterations_used} iterations "
        f"({'converged to truth' if icp_rot < 1e-3 else 'stuck in a local minimum'})"
    )
    print(f"wrote demo outputs to {out}/")


if __name__ == "__main__":
    main()
