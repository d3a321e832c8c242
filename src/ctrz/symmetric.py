"""Characters of the full symmetric group by the Murnaghan-Nakayama rule
(James and Kerber, The Representation Theory of the Symmetric Group,
1981, ch. 2; Macdonald, Symmetric Functions and Hall Polynomials, 1995,
ch. I.7) on beta-sets: λ of n is the int with bits λ_i + n - 1 - i for
i < n, λ padded with zeros.  A rim hook of length k moves a bead from b
to a free b - k, of sign -1 to the beads between, and χ^λ(μ) sums those
moves' signed characters at μ less a part k."""

from .perm import ClassSet, _partitions


def character(beta: int, parts: tuple[int, ...], memo: dict) -> int:
    """χ^λ(μ): beta the beta-set of λ, parts those of μ, largest first,
    memoised in memo over (beta-set, remaining parts)."""
    if not parts:
        return 1
    key = beta, parts
    if key not in memo:
        k, total = parts[0], 0
        for b in range(k, beta.bit_length()):
            if beta >> b & 1 and not beta >> (b - k) & 1:
                between = (beta >> (b - k + 1) & (1 << (k - 1)) - 1).bit_count()
                total += (-1) ** between * character(
                    beta ^ 1 << b ^ 1 << (b - k), parts[1:], memo)
        memo[key] = total
    return memo[key]


def characters(class_set: ClassSet) -> list[list[int]]:
    """The full symmetric group's rows, one per partition of the degree,
    largest first, at the classes in class order, μ a representative's
    cycle type with its fixed points as parts 1.  One memo per table."""
    n, memo = class_set.group.degree, {}
    types = [c.representative.cycle_type() + (1,) * c.representative.fixed_points()
             for c in class_set.classes]
    betas = (sum(1 << (part + n - 1 - i) for i, part in enumerate(shape))
             + (1 << n - len(shape)) - 1 for shape in _partitions(n, n))
    return [[character(beta, mu, memo) for mu in types] for beta in betas]
