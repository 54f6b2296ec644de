"""Decompose extreme points of the subtour relaxation into 2-edge-connected
multigraphs.

The classic hard inputs here are cycle-plus-chords points: an even cycle
whose edges carry value 1/2, plus vertex-disjoint chord paths at value 1.
Such a point is feasible for every subtour cut yet far from integral.  The
three-way decomposition tree writes it as a convex combination of genuine
2-edge-connected multigraphs at a certified factor.

Run:  python3 demos/two_edge_connected_points.py
"""

from collections import Counter

from fdt.generators import enumerate_cv, gen_cv
from fdt.model import check_2ec, verify_certificate_2ec
from fdt.twoec import fdt_2ec


def main():
    # one hand-picked point on an 8-cycle with four chords
    cv = gen_cv(8, [(0, 3), (1, 5), (2, 6), (4, 7)])
    print("point on 8-cycle, chords (0,3)(1,5)(2,6)(4,7):")
    for e, v in zip(cv.point.graph.edges, cv.point.x):
        print(f"  edge {e}: {float(v):g}")

    cert = fdt_2ec(cv.point)
    print(f"\ncertified factor C = {cert.factor:.4f} with {cert.k} multigraphs")
    for w, F in zip(cert.weights, cert.solutions):
        doubled = sum(1 for m in F if m == 2)
        print(f"  weight {w:.4f}  edges used {sum(F)} ({doubled} doubled), "
              f"2-edge-connected: {check_2ec(cv.point.graph, F)}")
    ok, report = verify_certificate_2ec(cert, cv.point.graph)
    print("verifier:", "valid" if ok else report)

    # sweep every enumerable point with a 10-vertex cycle
    print("\nall fractional points on the 10-cycle:")
    hist = Counter()
    for cv in enumerate_cv(10, seed=0):
        c = float(fdt_2ec(cv.point).factor)
        hist[round(c, 3)] += 1
        print(f"  matching {cv.matching}: C = {c:.4f}")
    print("factor histogram:", dict(sorted(hist.items())))


if __name__ == "__main__":
    main()
