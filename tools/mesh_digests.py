"""SHA-256 digests of the meshes ``triangulate`` and ``refine`` build on a fixed body set.

Run from the repository root, on two trees, and compare the outputs:

    python3 tools/mesh_digests.py > digests.txt

Each line is ``<body> <spacing> nodes=<sha> triangles=<sha> edges=<sha>
triangle_edges=<sha>``, or ``<body> <spacing> error=<type>`` when meshing
raises; the last line digests all the others.  A digest covers an array's
dtype, shape and bytes, so ``triangles`` is compared in order.  Spacings
are relative to the body's circumradius; ``refine`` is the uniform
refinement of the 0.04 mesh.

The bodies: the unit square, ``regular_polygon(64)`` and ``(6)``,
``polygon_corpus(42, 50)``, ``polygon_corpus(123, 50)``, the 8 sliver sums
``c[2k] + 0.005 c[2k + 1]`` of ``c = polygon_corpus(42, 16)``, and members
0-9 of ``polygon_corpus(42, 10)`` turned by 0.7k rad and translated by
1000k along (0.6, 0.8).  The turned bodies get no ``refine`` line.
"""

import hashlib
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import torsion_minkowski as tm  # noqa: E402

SPACINGS = (0.04, 0.02, 0.01)
ARRAYS = ("nodes", "triangles", "edges", "triangle_edges")


def _digest(a) -> str:
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _turned(p: tm.Polygon, k: int) -> tm.Polygon:
    c, s = math.cos(0.7 * k), math.sin(0.7 * k)
    vertices = [[c * x - s * y + 600.0 * k, s * x + c * y + 800.0 * k] for x, y in p.vertices]
    return tm.Polygon.from_vertices(vertices)


def bodies():
    """(name, polygon, whether to refine its 0.04 mesh) in a fixed order."""
    yield "square", tm.Polygon.from_vertices([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), True
    yield "ngon64", tm.regular_polygon(64), True
    yield "ngon6", tm.regular_polygon(6), True
    for seed in (42, 123):
        for k, p in enumerate(tm.polygon_corpus(seed, 50)):
            yield f"corpus{seed}-{k}", p, True
    c = tm.polygon_corpus(42, 16)
    for k in range(8):
        yield f"sliver{k}", tm.minkowski_sum(c[2 * k], tm.scale(c[2 * k + 1], 0.005)), True
    for k, p in enumerate(tm.polygon_corpus(42, 10)):
        yield f"turned{k}", _turned(p, k), False


def _line(name: str, spacing: str, mesh) -> str:
    if isinstance(mesh, Exception):
        return f"{name} {spacing} error={type(mesh).__name__}"
    return " ".join([name, spacing] + [f"{a}={_digest(getattr(mesh, a))}" for a in ARRAYS])


def _build(make, *args):
    try:
        return make(*args)
    except tm.TorsionMinkowskiError as exc:
        return exc


def main() -> None:
    total = hashlib.sha256()
    for name, p, refined in bodies():
        radius = tm.metrics(p).circumradius
        for rel in SPACINGS:
            mesh = _build(tm.triangulate, p, rel * radius)
            lines = [_line(name, str(rel), mesh)]
            if refined and rel == 0.04:
                lines.append(_line(name, "refine", mesh if isinstance(mesh, Exception)
                                   else _build(tm.refine, mesh)))
            for line in lines:
                print(line)
                total.update(line.encode())
    print(f"all {total.hexdigest()}")


if __name__ == "__main__":
    main()
