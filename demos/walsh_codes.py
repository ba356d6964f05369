"""Walsh code targets: why every class center is equally far from the rest.

Prints the modified 0/1 Walsh matrix at a few ranks (a codebook holding all
rank - 1 classes is the whole matrix), shows the constant pairwise Hamming
distance, and assigns class targets the way the trainer does (row 0, the
all-ones row, is reserved).
"""

import numpy as np

from divfe import make_codebook


def main():
    print("8x8 modified Walsh matrix (entries 0/1):")
    w = make_codebook(7, 8).matrix
    for row in w:
        print("   ", " ".join(str(v) for v in row))

    print("\nPairwise Hamming distances are always rank/2:")
    for rank in (4, 8, 16):
        w = make_codebook(rank - 1, rank).matrix
        dists = {int(np.count_nonzero(w[i] != w[j]))
                 for i in range(rank) for j in range(i + 1, rank)}
        print(f"    rank {rank:2d}: distinct pairwise distances = {sorted(dists)}")

    print("\nA 3-class codebook at rank 8 (row 0 skipped):")
    cb = make_codebook(3, 8)
    t = cb.targets()
    for label in range(cb.class_count):
        print(f"    class {label} -> row {cb.class_rows[label]}: {t[label]}")

    print("\nSquared distances between class targets "
          "(equal spacing is what the classifier relies on):")
    for i in range(3):
        for j in range(i + 1, 3):
            print(f"    d^2(class {i}, class {j}) = {np.sum((t[i] - t[j]) ** 2):.0f}")


if __name__ == "__main__":
    main()
