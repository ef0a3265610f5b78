"""Connected-component labelling under the ``scm`` skeleton.

SKiPPER's first published demo [Ginhac et al., MVA'98] parallelised
connected-component labelling with the Split-Compute-Merge skeleton.
The interesting part is the *merge*: components crossing the band
boundary get different labels in different bands, so the merge walks
each seam with a union-find, exactly like the sequential labeller
unites each horizontal run with the runs it touches on the row above.

This example writes those three functions, runs the scm version on a
simulated 4-processor ring, and cross-checks against the sequential
whole-image labeller.

Run:  python examples/region_labelling.py
"""

import numpy as np

from repro import FunctionTable, T9000, build
from repro.syndex import ring
from repro.vision import Image, UnionFind, checkerboard, label, split_rows
from repro.vision.synth import scene_with_blobs


def make_table() -> FunctionTable:
    table = FunctionTable()

    @table.register(
        "split_bands",
        ins=["int", "img"],
        outs=["band list"],
        cost=lambda n, im: 200.0 + 0.05 * im.nrows * im.ncols,
    )
    def split_bands(n, image):
        """Cut the binary image into n horizontal bands."""
        return split_rows(image, n)

    @table.register(
        "label_band",
        ins=["band"],
        outs=["labelled"],
        cost=lambda dom: 100.0 + 4.0 * dom.pixels.nrows * dom.pixels.ncols,
    )
    def label_band(domain):
        """Run-based CCL inside one band (local labels)."""
        labels, count = label(domain.pixels)
        return (domain.core, labels, count)

    @table.register(
        "merge_bands",
        ins=["img", "labelled list"],
        outs=["labels"],
        cost=lambda im, parts: 300.0 + 2.0 * im.ncols * len(parts),
    )
    def merge_bands(image, parts):
        """Stitch band labellings: offset, then union across each seam."""
        full = np.zeros(image.shape, dtype=np.int64)
        offset = 0
        tops = []
        for core, labels, count in parts:
            shifted = np.where(labels > 0, labels + offset, 0)
            full[core.row : core.row_end, :] = shifted
            tops.append(core.row)
            offset += count
        uf = UnionFind()
        for _ in range(offset):
            uf.make_set()
        for seam in tops[1:]:
            above, below = full[seam - 1], full[seam]
            ncols = image.ncols
            for c in range(ncols):
                if below[c] == 0:
                    continue
                for dc in (-1, 0, 1):  # 8-connectivity across the seam
                    cc = c + dc
                    if 0 <= cc < ncols and above[cc] != 0:
                        uf.union(int(above[cc]) - 1, int(below[c]) - 1)
        remap = np.zeros(offset + 1, dtype=np.int64)
        next_label = 0
        for provisional in range(offset):
            root = uf.find(provisional)
            if remap[root + 1] == 0:
                next_label += 1
                remap[root + 1] = next_label
            remap[provisional + 1] = remap[root + 1]
        return remap[full]

    return table


SOURCE = """
let nbands = 4;;
let main im = scm nbands split_bands label_band merge_bands im;;
"""


def main() -> None:
    rng = np.random.default_rng(7)
    blobs = [((r, c), (6, 9)) for r, c in rng.uniform(10, 118, size=(12, 2))]
    frame = scene_with_blobs((128, 128), blobs, background=0)
    board = checkerboard((128, 128), cell=16)
    table = make_table()
    built = build(SOURCE, table, ring(4), costs=T9000)

    for name, image in (("random blobs", frame), ("checkerboard", board)):
        report = built.run(args=(image,))
        (parallel_labels,) = report.one_shot_results
        _seq_labels, seq_count = label(image)
        par_count = int(parallel_labels.max())
        print(
            f"{name:13}: {par_count} components via scm on "
            f"{built.mapping.arch.name} "
            f"(sequential reference: {seq_count}) "
            f"{'OK' if par_count == seq_count else 'MISMATCH'}; "
            f"simulated makespan {report.makespan / 1000:.2f} ms"
        )


if __name__ == "__main__":
    main()
