"""Legacy ASCII VTK output and per-run CSV series.

Snapshots carry the velocity vector, its magnitude, the pressure, and the
porosity as vertex point data on the linear triangulation.  Output is fully
deterministic for a given configuration: fixed float formatting, no
timestamps.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from porousflow.fem import FeField
from porousflow.mesh import Mesh
from porousflow.porous import PorosityField

_FMT = "%.16e"
_POINT = f"{_FMT} {_FMT} 0.0"


def _write_rows(fh, row_format: str, values: np.ndarray) -> None:
    """One line of ``row_format`` per row of ``values``, in a single
    formatting call over the flattened values."""
    fh.write(f"{row_format}\n" * len(values) % tuple(values.ravel().tolist()))


def _write_header(fh, title: str, mesh: Mesh) -> None:
    fh.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
             f"DATASET UNSTRUCTURED_GRID\nPOINTS {mesh.n_vertices} double\n")
    _write_rows(fh, _POINT, mesh.vertices)
    fh.write(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}\n")
    _write_rows(fh, "3 %d %d %d", mesh.triangles)
    fh.write(f"CELL_TYPES {mesh.n_triangles}\n" + "5\n" * mesh.n_triangles)


def write_snapshot(u_field: FeField, p_field: FeField,
                   porosity: PorosityField, mesh: Mesh, t: float,
                   path) -> Path:
    """One flow snapshot with vertex point data."""
    path = Path(path)
    nv = mesh.n_vertices
    uv = u_field.node_values()[:nv]        # vertex nodes come first
    speed = np.sqrt(uv[:, 0] ** 2 + uv[:, 1] ** 2)
    phi = np.asarray(porosity.value(mesh.vertices), dtype=float)
    with open(path, "w") as fh:
        _write_header(fh, f"flow snapshot t={t:.6e}", mesh)
        fh.write(f"POINT_DATA {nv}\nVECTORS velocity double\n")
        _write_rows(fh, _POINT, uv)
        for name, values in (("velocity_magnitude", speed),
                             ("pressure", p_field.coefficients),
                             ("porosity", phi)):
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            _write_rows(fh, _FMT, values)
    return path


class SeriesWriter:
    """Accumulates the per-snapshot scalar series and writes one CSV."""

    header = ("t", "min_velocity_magnitude", "max_velocity_magnitude",
              "velocity_l2", "pressure_l2")

    def __init__(self):
        self.rows: list[tuple] = []

    def add(self, t: float, u_field: FeField, p_field: FeField,
            u_l2: float, p_l2: float) -> None:
        uv = u_field.node_values()
        speed = np.sqrt(uv[:, 0] ** 2 + uv[:, 1] ** 2)
        self.rows.append((t, float(speed.min()), float(speed.max()),
                          u_l2, p_l2))

    def write(self, path) -> Path:
        path = Path(path)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.header)
            for row in self.rows:
                writer.writerow([f"{v:.6e}" for v in row])
        return path

