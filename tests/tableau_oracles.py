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

Schutzenberger's evacuation (Schutzenberger 1963) empties a tableau on
the alphabet 1..n by jeu de taquin: remove the entry x at the corner
(0, 0), slide the hole outward, each time moving into it the smaller of its
right and upper neighbours (the upper one on a tie), until it has neither,
then drop that cell and write n + 1 - x at its place in the output.
Henriques and Kamnitzer (math/0408114) write the commutor of a pair of
tableaux with three evacuations: of the first, of the two together, and of
the first part of the result.
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


def is_tableau(T: list) -> bool:
    """True iff the letter rows T have weakly decreasing lengths, weakly
    increasing rows and strictly increasing columns."""
    return all(len(low) >= len(high)
               and all(x < y for x, y in zip(low, high))
               for low, high in zip(T, T[1:])) and all(
        all(x <= y for x, y in zip(row, row[1:])) for row in T)


def evacuation(T: list, n: int) -> list:
    """The evacuation of the tableau T, a list of letter rows on 1..n
    (empty top rows allowed); the result has the same row lengths."""
    assert is_tableau(T), T
    T = [list(row) for row in T]
    out = [[0] * len(row) for row in T]
    for _ in range(sum(map(len, T))):
        x = T[0][0]
        r = c = 0
        while True:
            right = T[r][c + 1] if c + 1 < len(T[r]) else None
            up = T[r + 1][c] if r + 1 < len(T) and c < len(T[r + 1]) else None
            if right is None and up is None:
                break
            if up is None or (right is not None and right < up):
                T[r][c], c = right, c + 1
            else:
                T[r][c], r = up, r + 1
        T[r].pop()
        out[r][c] = n + 1 - x
    return out


def three_evacuations(A: list, B: list, n: int) -> tuple:
    """The commutor of the pair of letter rows (A, B) on 1..n, A a tableau
    and A next to B (B's letters raised by n) a tableau on 1..2n: evacuate
    A, then A next to B, and split the result into its letters <= n, which
    are evacuated once more, and the rest, lowered by n."""
    A = evacuation(A, n)
    whole = evacuation([a + [x + n for x in b] for a, b in zip(A, B)], 2 * n)
    first = [[x for x in row if x <= n] for row in whole]
    return evacuation(first, n), [[x - n for x in row if x > n] for row in whole]
