"""The legacy VTK snapshot text, written one line at a time.

:func:`porousflow.vtkio.write_snapshot` formats each block of rows in one
call; the kernel-reference tests compare it against this text for arbitrary
fields, and the CLI tests compare the files of a run against it.
"""

import numpy as np


def snapshot_text_reference(u_field, p_field, porosity, mesh, t):
    """The legacy VTK snapshot written one line at a time."""
    fmt = "{:.16e}"
    lines = ["# vtk DataFile Version 3.0", f"flow snapshot t={t:.6e}",
             "ASCII", "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.n_vertices} double"]
    for x, y in mesh.vertices:
        lines.append(f"{fmt.format(x)} {fmt.format(y)} 0.0")
    lines.append(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}")
    for a, b, c in mesh.triangles:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {mesh.n_triangles}")
    lines += ["5"] * mesh.n_triangles
    nv = mesh.n_vertices
    uv = u_field.node_values()[:nv]
    lines += [f"POINT_DATA {nv}", "VECTORS velocity double"]
    for vx, vy in uv:
        lines.append(f"{fmt.format(vx)} {fmt.format(vy)} 0.0")
    speed = np.sqrt(uv[:, 0] ** 2 + uv[:, 1] ** 2)
    phi = np.asarray(porosity.value(mesh.vertices), dtype=float)
    for name, values in (("velocity_magnitude", speed),
                         ("pressure", p_field.coefficients),
                         ("porosity", phi)):
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        lines += [fmt.format(v) for v in values]
    return "\n".join(lines) + "\n"


