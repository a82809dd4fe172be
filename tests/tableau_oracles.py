"""Tableau algorithms from their textbook definitions, as oracles for the
condensations: they share no code and no formula with octarray, and import
nothing from it.

Tableaux are in French convention, as in octarray: a list of rows, the
bottom (longest) row first, each row weakly increasing left to right and
each column strictly increasing upwards.  Letters and labels are ints.

Schensted row insertion (Knuth, "Permutations, matrices, and generalized
Young tableaux", 1970; Fulton, "Young Tableaux", 1997, ch. 1 and 4) puts a
letter x into the bottom row: if some entry of the row is greater than x,
x replaces the leftmost such entry, which is put into the next row up in
the same way; otherwise x is placed at the end of the row.
"""


def insert(P: list, x: int) -> int:
    """Insert x into the tableau P by row bumping, in place; the index of the
    row that grew."""
    for r, row in enumerate(P):
        for k, y in enumerate(row):
            if y > x:
                row[k], x = x, y
                break
        else:
            row.append(x)
            return r
    P.append([x])
    return len(P) - 1


def insertion(words) -> tuple:
    """(P, Q) for the words, given as (label, letters) in reading order: P
    is the tableau the letters are inserted into one at a time, and Q the
    recording tableau, in which each box P gains holds the label of the
    letter that made it."""
    P, Q = [], []
    for label, letters in words:
        for x in letters:
            r = insert(P, x)
            if r == len(Q):
                Q.append([])
            Q[r].append(label)
    return P, Q
