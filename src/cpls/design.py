"""Empirical design assembly: Gram matrix and observation vector.

For a dimension pair (m1, m2), the stacked basis evaluations
``v = (phi_1(X), ..., phi_m1(X), psi_1(Y), ..., psi_m2(Y))`` drive three
objects, all averaged over paths and integrated over the retained time
window [t0, T] with left-point Riemann sums:

* the Gram matrix      ``gram[p,q] = (1/(N T0)) sum_i sum_l v_p v_q dt``
* the observation part ``zvec[p]  = (1/(N T0)) sum_i sum_l v_p dX``
  (left-point Ito discretization of the stochastic integral), and
* the constraint vector ``dvec = (0, ..., 0, delta_{m2})``.

``T0`` is the caller's ``t_norm``, which has no default: every caller in
the package passes the full horizon T, the experiment protocol's
normalizer.

The sums run over blocks of ``_PATH_BLOCK`` paths, in a fixed order, so
reruns give the same bits. The paths come from a source's chunks: a
:class:`cpls.simulate.PathSample` is one chunk of views of its arrays, and
a :class:`cpls.simulate.PathStream` simulates chunks of ``CHUNK_PATHS``
paths as the pass reaches them, so a pass over a stream holds one chunk,
not the sample. Every chunk but the last is a whole number of blocks, so
the blocks, and the bits, are the same from either source. Each block has
one row per basis member plus a row of X-increments, and one column per
(path, window point); every basis family
writes its rows into the block in place, and a single ``block @ block.T``
yields both the Gram sums and the dX-sums. Two buffers take the blocks in
turn: the calling thread fills one block while a helper thread multiplies
the one before, and the caller adds the products to the running sums in
block order (see :func:`_accumulate`). So the bits depend on the block size
alone, not on which thread made a product or when. At the default 39 x 39
bound the two buffers, of 80 rows each, take 9.8 MB together.

A streamed pass holds the two buffers, allocated first, and one chunk with
the simulator's scratch (3.1 MB at 256 paths). Measured with tracemalloc
over a repetition's shared step at N = 1000 and the default bound, it
peaked at 13.2 MB, against 18.1 MB for the whole sample; at a 5 x 5 bound
the step holds the same 4.6 MB at N = 1000 and N = 4000. The simulator's
docstring says how ``CHUNK_PATHS`` = 256 was chosen.

One pass can return the designs of several prefixes of the sample, the
first n paths for each n asked (:func:`build_trimmed_designs`), which is how
one sample of N = 1000 paths also gives the N = 400 design of the same
repetition. The running sums are checkpointed at each n: at a block
boundary as they stand; inside a block, plus the product of that block's
leading columns, added to a copy. Those are the sums, in the same order,
that a pass over the first n paths alone makes, so each design is bitwise
the standalone design of its prefix.

The scan's pass trims itself (:func:`build_trimmed_designs`). The pairs
(m1, m2) a scan admits form a down-set (see :mod:`cpls.selection`), so
they reach no further in m1 than the last (m1, 1) that passes, nor in m2
than the last (1, m2). After ``TRIM_AFTER_BLOCKS`` = 8 full blocks (128
paths) the pass normalizes its sums as a final design is normalized and
finds, by bisection, the last (m1, 1) and the last (1, m2) whose blocks
clear the eigenvalue floor that both stability rules share (a finite
:func:`inv_opnorm`, smallest eigenvalue above ``1e-12 k``). Unlike the
rules' budget ``N / log N``, the floor does not depend on N, so the
decision reads the first 128 paths alone and a prefix design stays bitwise
the trimmed design of its prefix. The blocks filled after it hold only
phi_1..phi_E1, psi_1..psi_E2 and dX, each E the edge plus 1 plus
``TRIM_MARGIN`` = 8, in the leading rows of the same two buffers. The pass
keeps every row when the partial corner clears the floor (as every model 1
or 2 x Y (A) sample of seeds 1-20 did) or when the cut would save fewer than
``TRIM_MIN_ROWS`` = 8 block rows, one OpenBLAS panel.

The margin covers the edges' growth from 128 paths to N: more paths reach
further into the tails, where the higher members live. From 128 to 1000
paths the psi edge grew by at most 3 rows over seeds 1-10 of the six
(model, Y) pairs, and model 3's phi edge by at most 8 over seeds 1-40 of
its two Y types, bar one sample that grew by 9.

The cut rests on that estimate, so the builder certifies each cut design
before returning it. The stability event of either rule implies the floor,
so when the pairs at the cut, (E1, 1) if E1 < M1 and (1, E2) if E2 < M2,
fail the floor in the final design, they fail the event, and by Cauchy
interlacing (the admissible set is a down-set) so does every pair past the
cut. When one of them clears the floor, the builder rebuilds that count's
design untrimmed from its first n paths (one more pass for all such
counts), which is bitwise the full design. Under the practical rule with
the default cutoff 1e14 the floor and the event agree on every pair: a
block that clears the floor has ``k |G^-1| < 1e12``, below the event's
bound ``cutoff N / log N`` (at least 2.7e14 for N >= 2). So the check
decides as the scan's own frontier would. Under the theoretical rule or a
small cutoff it may fall back where the event would not, which gives the
untrimmed bits. Over the 12 table-1 cells at seeds 1-30, no design fell
back.

A cut design's entries are those of the full design, summed by products
of fewer rows; OpenBLAS may order an entry's sum differently at another row
count, so a scan's coefficients may move in their last bits. On the model 3
x Y (B), N = 1000 samples of the benchmark's ``fit-3B-1000`` workload the
pass fills about 60 of 80 rows after its first 144 paths, and a fit took
20-28 % less time than with every row (one BLAS thread, 2 cores).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bases import BasisFamily, delta_vector, eval_rows
from .simulate import PathSample, PathStream

_PATH_BLOCK = 16  # fixed block size => fixed summation order


@dataclass(frozen=True)
class DimPair:
    """Projection-space dimensions (m1, m2) of the two drift components.

    The pair indexes the product space S_m1 x S_m2, so both components have
    at least one member.
    """

    m1: int
    m2: int

    def __post_init__(self):
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError(f"need m1, m2 >= 1, got {self}")

    @property
    def total(self) -> int:
        return self.m1 + self.m2

    def __iter__(self):
        return iter((self.m1, self.m2))


@dataclass
class DesignSystem:
    """Assembled (gram, zvec, dvec) at a dimension pair, plus the time normalizer."""

    dims: DimPair
    gram: np.ndarray
    zvec: np.ndarray
    dvec: np.ndarray
    t_norm: float

    @property
    def size(self) -> int:
        return self.dims.total


def _block_rows(rows: int) -> int:
    """``rows`` rounded up to a multiple of 8 if that adds at most 3 rows (see :func:`_accumulate`)."""
    aligned = -(-rows // 8) * 8
    return aligned if aligned - rows <= 3 else rows


def _products(block: np.ndarray, cuts: Sequence[int]) -> tuple[np.ndarray, list[np.ndarray]]:
    """``block @ block.T`` and the same product of the leading ``c`` columns, for each ``c`` in ``cuts``."""
    return block @ block.T, [block[:, :c] @ block[:, :c].T for c in cuts]


def _accumulate(
    sample: PathSample | PathStream,
    phi: BasisFamily,
    psi: BasisFamily,
    dims: DimPair,
    t_norm: float,
    counts: Sequence[int],
    trim: bool,
) -> list[tuple[DimPair, np.ndarray, np.ndarray]]:
    """Dimensions, Gram matrix and observation vector of the first ``n`` paths, for each ``n`` in ``counts``.

    The paths run in blocks of at most ``_PATH_BLOCK`` paths of one of the
    sample's chunks; every chunk before the last holds whole blocks
    (``CHUNK_PATHS`` is a multiple of ``_PATH_BLOCK``), so the blocks start
    at the same paths as in one whole sample. Each block is a view of one
    of two buffers, used in turn, with ``m1 + m2 + 1`` rows and one column
    per (path, window point), path-major. :func:`cpls.bases.eval_rows`
    writes the stacked basis values at the window's left points into rows
    ``[:k]``, ``k = m1 + m2``, and row ``k`` holds the X-increments, so one
    ``block @ block.T`` gives the Gram sums in ``[:k, :k]`` and the dX-sums
    in ``[:k, k]``. Every left-point weight is ``dt``, which multiplies the
    sums once, at the end.

    The buffers have :func:`_block_rows` rows: ``k + 1`` rounded up to a
    multiple of 8, OpenBLAS's panel height, when that takes at most 3 rows
    more (79 -> 80 at the 39 x 39 bound). Measured with 7680 columns on one
    BLAS thread, a product 5, 6 or 7 rows past a multiple of 8 was no faster
    than one of the next multiple (79 rows took 1.94 ms, 80 rows 1.70 ms),
    while 1 to 4 rows past were faster than padding. The padding rows are
    zeroed once; their products are zero, and the running sums, which take
    the buffers' row count, are read only in ``[:k, :k]`` and ``[:k, k]``.

    The calling thread fills block j + 1 while one helper thread computes
    block j's products, that one and the product of the leading columns at
    each count inside the block; BLAS releases the interpreter lock, so the
    two overlap. A buffer is refilled only after its products have been
    collected. The caller adds each block's products to the running sums in
    block order, so the sums are bitwise the same whichever thread made a
    product and whenever it finished. NumPy computes each product with BLAS
    ``syrk``, which splits the output among its threads, never the sum over
    columns, so the sums are also bitwise the same at every BLAS thread
    count. The helper lives only for the call, which keeps a process that
    forks between calls free of threads.

    With ``trim``, the sums of the first ``TRIM_AFTER_BLOCKS`` blocks decide
    (:func:`_trimmed_dims`) whether the blocks filled after that hold only
    the rows of smaller dimensions (E1, E2): phi_1..phi_E1, psi_1..psi_E2
    and dX, the leading rows of the same two buffers. The running sums are
    cut to those rows when the first trimmed product is collected, and each
    count's design spans the dimensions its sums hold. The decision reads
    the first 128 paths alone, so a prefix design is still bitwise the
    standalone design of its prefix.

    ``counts`` is strictly increasing, and the paths after the last count
    are not read (nor, from a stream, simulated). Each count checkpoints
    the running sums (see the module docstring), so every (G, z) is bitwise
    that of its prefix sample alone.
    """
    if not counts or any(b <= a for a, b in zip(counts, counts[1:])) or counts[-1] > sample.n_paths:
        raise ValueError(f"path counts {counts} must increase strictly up to {sample.n_paths}")
    if dims.m1 > counts[0] or dims.m2 > counts[0]:
        raise ValueError(f"dimensions {dims} exceed the number of paths {counts[0]}")
    dt = sample.grid.dt
    lo = sample.grid.drop_first
    hi = sample.grid.n_steps
    width = hi - lo
    rows = _block_rows(dims.total + 1)
    sums = np.zeros((rows, rows))
    span = fill = dims  # the rows the running sums hold, and those of the blocks being filled
    out = []

    def normalized(n, sums):
        k = span.total
        scale = n * t_norm
        gram = dt * sums[:k, :k] / scale
        return span, 0.5 * (gram + gram.T), sums[:k, k] / scale

    def collect(future, inside, stop, rows_of):
        nonlocal sums, span
        if rows_of != span:  # the first trimmed product: cut the sums to its rows
            # In place: a new array made while the buffers are live let the
            # next pass's buffers land elsewhere, 5 MB more resident at times.
            keep = np.r_[: rows_of.m1, dims.m1 : dims.m1 + rows_of.m2, dims.total]
            sums[: keep.size, : keep.size] = sums[np.ix_(keep, keep)]
            sums, span = sums[: _block_rows(keep.size), : _block_rows(keep.size)], rows_of
        whole, parts = future.result()
        for n, part in zip(inside, parts):
            out.append(normalized(n, sums + part))
        sums += whole
        if stop in counts:
            out.append(normalized(stop, sums))

    bufs = np.empty((2, rows, min(_PATH_BLOCK, counts[-1]) * width))
    bufs[:, dims.total + 1 :] = 0.0
    # Imported here, so that ``import cpls`` does not load the executor machinery.
    from concurrent.futures import ThreadPoolExecutor

    pending = None
    first = 0  # the first path of the chunk being read
    with ThreadPoolExecutor(1) as helper:
        for chunk_x, chunk_y in sample.chunks(counts[-1]):
            for offset in range(0, len(chunk_x), _PATH_BLOCK):
                x, y = chunk_x[offset : offset + _PATH_BLOCK], chunk_y[offset : offset + _PATH_BLOCK]
                start = first + offset
                j, stop = start // _PATH_BLOCK, start + len(x)
                m1, k = fill.m1, fill.total
                block = bufs[j % 2, : _block_rows(k + 1), : (stop - start) * width]
                if fill != dims and j < TRIM_AFTER_BLOCKS + 3:  # each buffer's first trimmed block
                    block[k + 1 :] = 0.0
                eval_rows(phi, m1, x[:, lo:hi].ravel(), out=block[:m1])
                eval_rows(psi, fill.m2, y[:, lo:hi].ravel(), out=block[m1:k])
                np.subtract(x[:, lo + 1 : hi + 1], x[:, lo:hi], out=block[k].reshape(stop - start, width))
                inside = [n for n in counts if start < n < stop]
                product = helper.submit(_products, block, [(n - start) * width for n in inside])
                if pending is not None:
                    collect(*pending)
                pending = (product, inside, stop, fill)
                if trim and j == TRIM_AFTER_BLOCKS and stop < counts[-1]:
                    # the sums hold the first TRIM_AFTER_BLOCKS blocks; block j is in flight
                    fill = _trimmed_dims(normalized(start, sums)[1], dims)
            first += len(chunk_x)
            del chunk_x, chunk_y, x, y  # the chunk's last references, dropped before the next is simulated
        collect(*pending)
    return out


#: Full-row blocks whose sums decide a trim (128 paths): a block index, never a timing.
TRIM_AFTER_BLOCKS = 8
#: Rows a trim keeps past the first member that fails the floor, on each side.
TRIM_MARGIN = 8
#: The least number of block rows a trim must save: one OpenBLAS panel.
TRIM_MIN_ROWS = 8


def _clears_floor(gram: np.ndarray, dims: DimPair, m1: int, m2: int) -> bool:
    """Whether pair (m1, m2)'s block of ``gram`` (at ``dims``) clears the floor of :func:`inv_opnorm`."""
    sub = np.r_[:m1, dims.m1 : dims.m1 + m2]
    return math.isfinite(inv_opnorm(gram[np.ix_(sub, sub)]))


def _floor_edges(gram: np.ndarray, dims: DimPair) -> tuple[int, int]:
    """The largest m1 with (m1, 1), and the largest m2 with (1, m2), whose block of
    ``gram`` (at ``dims``) clears the floor (:func:`_clears_floor`); 0 for none.

    Bisection on each edge, which the floor's down-set makes monotone.
    """

    def edge(top, clears):
        lo, hi = 0, top + 1  # the pairs up to lo clear the floor, from hi on they fail
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if clears(mid) else (lo, mid)
        return lo

    return (edge(dims.m1, lambda m: _clears_floor(gram, dims, m, 1)),
            edge(dims.m2, lambda m: _clears_floor(gram, dims, 1, m)))


def _cut_holds(system: DesignSystem, dims: DimPair) -> bool:
    """Whether the pairs at the cut of ``system`` from ``dims``, (E1, 1) if E1 < M1 and
    (1, E2) if E2 < M2, fail the floor; true at once for an uncut design."""
    (e1, e2), gram = system.dims, system.gram
    return not ((e1 < dims.m1 and _clears_floor(gram, system.dims, e1, 1))
                or (e2 < dims.m2 and _clears_floor(gram, system.dims, 1, e2)))


def _trimmed_dims(gram: np.ndarray, dims: DimPair) -> DimPair:
    """The dimensions whose rows the rest of a trimmed pass fills, from the normalized
    Gram ``gram`` at ``dims`` of its first blocks.

    ``dims`` itself when the corner clears the floor, or when the trim would
    save fewer than ``TRIM_MIN_ROWS`` block rows; otherwise each side keeps
    ``TRIM_MARGIN`` rows past its edge's first failing member
    (:func:`_floor_edges`).
    """
    if math.isfinite(inv_opnorm(gram)):
        return dims
    edge1, edge2 = _floor_edges(gram, dims)
    keep = DimPair(min(dims.m1, edge1 + 1 + TRIM_MARGIN), min(dims.m2, edge2 + 1 + TRIM_MARGIN))
    if _block_rows(dims.total + 1) - _block_rows(keep.total + 1) < TRIM_MIN_ROWS:
        return dims
    return keep


#: Scale factor for the singularity threshold on the smallest eigenvalue.
EIG_THRESHOLD_PER_DIM = 1e-12


def inv_opnorm(gram: np.ndarray) -> float:
    """Operator norm of the Gram inverse, or +inf when numerically singular.

    The matrix counts as singular when its smallest eigenvalue falls below
    ``1e-12 * size``, a scale-aware cutoff far tighter than any stability
    event bound used downstream.
    """
    gram = np.asarray(gram, dtype=float)
    lam_min = float(np.linalg.eigvalsh(gram)[0])
    if lam_min <= EIG_THRESHOLD_PER_DIM * gram.shape[0]:
        return float("inf")
    return 1.0 / lam_min


def build_design(
    sample: PathSample | PathStream,
    phi: BasisFamily,
    psi: BasisFamily,
    dims: DimPair,
    t_norm: float,
) -> DesignSystem:
    """Assemble the complete design system at ``dims`` in one pass over ``sample``, a
    :class:`~cpls.simulate.PathSample` or a :class:`~cpls.simulate.PathStream`."""
    return _designs(sample, phi, psi, dims, (sample.n_paths,), t_norm, trim=False)[0]


def build_trimmed_designs(
    sample: PathSample | PathStream,
    phi: BasisFamily,
    psi: BasisFamily,
    dims: DimPair,
    counts: Sequence[int],
    t_norm: float,
) -> list[DesignSystem]:
    """Designs of the first ``n`` paths, for each ``n`` in the increasing ``counts``, in one
    pass, each cut to the rows a scan's admissible pairs can reach.

    A design spans ``dims`` or, when the first 128 paths show a hull of
    pairs clearing the eigenvalue floor well inside it, smaller dimensions
    (see the module docstring); its entries are those of the full design,
    summed by products of fewer rows. Every cut design is certified: no pair
    past its rows clears the floor, so none is admissible under either
    stability rule. A count whose cut fails the certificate gets its full
    design instead, bitwise the :func:`build_design` of its first ``n``
    paths, all such counts from one more untrimmed pass (which simulates a
    stream's chunks again). Each design is bitwise the trimmed design of
    its prefix sample alone. Designs of at most 144 paths are never
    trimmed.
    """
    designs = _designs(sample, phi, psi, dims, counts, t_norm, trim=True)
    redo = [n for n, system in zip(counts, designs) if not _cut_holds(system, dims)]
    if redo:
        full = dict(zip(redo, _designs(sample, phi, psi, dims, redo, t_norm, trim=False)))
        designs = [full.get(n, system) for n, system in zip(counts, designs)]
    return designs


def _designs(sample, phi, psi, dims, counts, t_norm, trim) -> list[DesignSystem]:
    if not (t_norm > 0):
        raise ValueError(f"t_norm must be positive, got {t_norm!r}")
    t_norm = float(t_norm)
    return [
        DesignSystem(dims=span, gram=gram, zvec=zvec, t_norm=t_norm,
                     dvec=np.concatenate([np.zeros(span.m1), delta_vector(psi, span.m2)]))
        for span, gram, zvec in _accumulate(sample, phi, psi, dims, t_norm, tuple(counts), trim)
    ]


def subsystem(system: DesignSystem, dims: DimPair) -> DesignSystem:
    """Extract the nested design at smaller dimensions from a larger one.

    Valid because the projection spaces are nested: the Gram and observation
    entries at (m1, m2) are exactly the corresponding sub-blocks at any
    (M1, M2) >= (m1, m2) assembled from the same sample. The arrays are copies.
    """
    big = system.dims
    if dims.m1 > big.m1 or dims.m2 > big.m2:
        raise ValueError(f"{dims} is not nested in {big}")
    idx = np.concatenate([np.arange(dims.m1), big.m1 + np.arange(dims.m2)])
    gram, zvec, dvec = system.gram[np.ix_(idx, idx)], system.zvec[idx], system.dvec[idx]
    return DesignSystem(dims=dims, gram=gram, zvec=zvec, dvec=dvec, t_norm=system.t_norm)
