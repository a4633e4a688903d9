"""Distributed-line crossbar read-out: sneak paths *and* IR drop.

:mod:`repro.crossbar.readout` treats every row/column line as one ideal
node.  Real MSPT nanowires are long, thin poly-Si resistors
(:mod:`repro.device.resistance`), so the line voltage sags along the
wire and far-corner cells read differently from near-corner ones.

This solver models each line as a resistor chain with one node per
crossing: a bank with ``m x n`` crosspoints has ``2 m n`` nodes, each
crosspoint a conductance between its row node and column node, and each
line segment a conductance between adjacent nodes of the same line.
The sparse Laplacian is solved with SciPy; the ideal-line solver is the
``segment_resistance = 0`` limit (checked in the tests).

Like the ideal model, two solver paths hang off the ``method`` field:
``"batched"`` (default) assembles the Laplacian from COO triplet arrays
and solves cell batches against one ``splu`` factorization with a block
RHS (:meth:`DistributedReadout.read_currents`); ``"loop"`` is the
original dict-stamping per-cell reference, kept for equivalence
checks.  The two paths agree within sparse-solver tolerance (relative
differences at the 1e-9 level; gated in the tests and the readout
bench).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crossbar.readout import METHODS, ReadoutError, ReadoutModel


@dataclass(frozen=True)
class DistributedReadout:
    """Read-out with finite line resistance.

    Parameters
    ----------
    base:
        Crosspoint model (R_on/R_off, read voltage, biasing scheme).
    row_segment_ohm, col_segment_ohm:
        Series resistance of one line segment (between two adjacent
        crossings) on each layer.
    method:
        ``"batched"`` (vectorized engine, default) or ``"loop"`` (the
        scalar per-cell reference).
    """

    base: ReadoutModel = ReadoutModel()
    row_segment_ohm: float = 50.0
    col_segment_ohm: float = 50.0
    method: str = "batched"

    def __post_init__(self) -> None:
        if self.row_segment_ohm < 0 or self.col_segment_ohm < 0:
            raise ReadoutError("segment resistances must be non-negative")
        if self.method not in METHODS:
            raise ReadoutError(
                f"unknown method {self.method!r}; expected one of {METHODS}"
            )

    def _segment_conductances(self) -> tuple[float, float]:
        """Effective per-segment conductances on each layer.

        A zero-resistance segment is numerically ideal: large relative
        to the crosspoint conductances but small enough to keep the
        sparse solve well conditioned (the same substitution on both
        solver paths).
        """
        big = 1e5 / self.base.r_on
        g_row = big if self.row_segment_ohm == 0 else 1.0 / self.row_segment_ohm
        g_col = big if self.col_segment_ohm == 0 else 1.0 / self.col_segment_ohm
        return g_row, g_col

    def read_current(self, states: np.ndarray, row: int, col: int) -> float:
        """Sense current [A] reading crosspoint (row, col).

        The selected row is driven at its *near* end (column 0 side) and
        the selected column sensed at its near end (row 0 side), so the
        selected cell's position inside the bank matters — the IR-drop
        effect the ideal solver cannot show.
        """
        g = self.base.conductances(states)
        rows, cols = g.shape
        if not 0 <= row < rows or not 0 <= col < cols:
            raise ReadoutError(f"selected cell ({row}, {col}) outside {g.shape}")
        if self.method == "loop":
            return self._read_current_loop(g, row, col)
        from repro.sim.readout import DistributedBank

        g_row, g_col = self._segment_conductances()
        bank = DistributedBank(g, g_row, g_col)
        return float(
            bank.read_currents(self.base.scheme, self.base.v_read, [(row, col)])[0]
        )

    def read_currents(self, states: np.ndarray, cells) -> np.ndarray:
        """Sense currents of many cells of one bank state.

        Under ``method="batched"`` the distributed Laplacian is
        assembled and factorized once (``splu``) and every cell becomes
        a column of one block-RHS solve; ``method="loop"`` solves one
        cell at a time with the scalar reference.
        """
        if self.method == "loop":
            from repro.sim.readout import _as_cells

            g = self.base.conductances(states)
            rows, cols = _as_cells(cells, *g.shape)
            return np.array(
                [
                    self.read_current(states, int(r), int(c))
                    for r, c in zip(rows, cols)
                ]
            )
        from repro.sim.readout import DistributedBank

        g = self.base.conductances(states)
        g_row, g_col = self._segment_conductances()
        bank = DistributedBank(g, g_row, g_col)
        return bank.read_currents(self.base.scheme, self.base.v_read, cells)

    def _read_current_loop(self, g: np.ndarray, row: int, col: int) -> float:
        """Scalar per-cell reference: dict stamping, one sparse solve."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import spsolve

        rows, cols = g.shape
        n_nodes = 2 * rows * cols

        def rnode(i: int, j: int) -> int:
            return i * cols + j

        def cnode(i: int, j: int) -> int:
            return rows * cols + i * cols + j

        entries: dict[tuple[int, int], float] = {}

        def add(a: int, b: int, conductance: float) -> None:
            entries[(a, a)] = entries.get((a, a), 0.0) + conductance
            entries[(b, b)] = entries.get((b, b), 0.0) + conductance
            entries[(a, b)] = entries.get((a, b), 0.0) - conductance
            entries[(b, a)] = entries.get((b, a), 0.0) - conductance

        # crosspoint conductances
        for i in range(rows):
            for j in range(cols):
                add(rnode(i, j), cnode(i, j), g[i, j])
        g_row, g_col = self._segment_conductances()
        # row-line segments (along columns)
        for i in range(rows):
            for j in range(cols - 1):
                add(rnode(i, j), rnode(i, j + 1), g_row)
        # column-line segments (along rows)
        for j in range(cols):
            for i in range(rows - 1):
                add(cnode(i, j), cnode(i + 1, j), g_col)

        fixed: dict[int, float] = {
            rnode(row, 0): self.base.v_read,   # driver at the row's near end
            cnode(0, col): 0.0,                # sense amp at the column's near end
        }
        if self.base.scheme in ("ground", "half_v"):
            bias = 0.0 if self.base.scheme == "ground" else self.base.v_read / 2.0
            for i in range(rows):
                if i != row:
                    fixed[rnode(i, 0)] = bias
            for j in range(cols):
                if j != col:
                    fixed[cnode(0, j)] = bias

        free = [k for k in range(n_nodes) if k not in fixed]
        index_of = {k: idx for idx, k in enumerate(free)}
        data, rows_idx, cols_idx = [], [], []
        rhs = np.zeros(len(free))
        for (a, b), val in entries.items():
            if a in fixed:
                continue
            if b in fixed:
                rhs[index_of[a]] -= val * fixed[b]
            else:
                data.append(val)
                rows_idx.append(index_of[a])
                cols_idx.append(index_of[b])
        lap = csr_matrix((data, (rows_idx, cols_idx)), shape=(len(free), len(free)))
        voltages = np.empty(n_nodes)
        for k, v in fixed.items():
            voltages[k] = v
        if free:
            voltages[np.array(free)] = spsolve(lap, rhs)

        # current into the sense node: the sense node collects the
        # column current through its first segment plus the local
        # crosspoint
        sense = cnode(0, col)
        current = g[0, col] * (voltages[rnode(0, col)] - voltages[sense])
        if rows > 1:
            current += g_col * (voltages[cnode(1, col)] - voltages[sense])
        return float(current)

    def position_sweep(
        self, size: int, positions: list[int] | None = None
    ) -> list[tuple[int, float]]:
        """ON-cell read current along the bank diagonal.

        Shows the IR-drop gradient: far-corner cells (large index) see
        less drive voltage and read lower.
        """
        positions = positions or [0, size // 2, size - 1]
        states = np.zeros((size, size), dtype=bool)
        out = []
        for p in positions:
            states[:, :] = False
            states[p, p] = True
            out.append((p, self.read_current(states, p, p)))
        return out

    def worst_case_margin(self, size: int) -> float:
        """Margin of the far-corner cell in the all-ON background.

        The pessimistic combination: maximum sneak, maximum IR drop.
        """
        states = np.ones((size, size), dtype=bool)
        far = size - 1
        i_on = self.read_current(states, far, far)
        states[far, far] = False
        i_off = self.read_current(states, far, far)
        if i_on <= 0:
            raise ReadoutError("non-positive ON current")
        return (i_on - i_off) / i_on
