"""Autonomous SRAM self-refresh state machine.

The scrubber walks the SRAM one row per step through its own port: it reads the three
raw replicas of the current row and, when they all match, simply advances. On a
mismatch it majority-votes the three words and writes the result back during the next
step, then advances — unless the core wrote the same row in the write-back cycle, in
which case the write is skipped (the core's fresh data supersedes the stale vote) and
the scan moves on. With a divider, cycles without a step lie between the read and the
write-back; a core store into the pending row on one of them is voted into the pending
word again (:meth:`Scrubber.merge_store`), so the write-back keeps the stored data.

The scrubber's own state (row pointer, phase flag, pending word) is TMR-protected
like every other sequential element, so a single upset in the scrubber cannot derail
the scan. One FSM step runs per system clock cycle by default; a divider slows the
cadence for exploring the correction-time budget.
"""

from .tmr import Domain, TmrCell, vote3

PHASE_READ = 0
PHASE_WRITEBACK = 1


class Scrubber:
    def __init__(self, rows):
        self.rows = rows
        row_bits = max(1, (rows - 1).bit_length())
        self.row_ptr = TmrCell("sram.scrub_row_ptr", Domain.SRAM, row_bits, 0)
        self.phase = TmrCell("sram.scrub_phase", Domain.SRAM, 1, PHASE_READ)
        self.pending_word = TmrCell("sram.scrub_word", Domain.SRAM, 32, 0)

    def cells(self):
        yield self.row_ptr
        yield self.phase
        yield self.pending_word

    def step(self, sram, core_write_row=None):
        """One scrub cycle against ``sram``.

        ``core_write_row`` is the row the core wrote this cycle, if any (the
        write-conflict input). Returns the row written back this step, or None.
        A row outside ``sram.dirty`` (which the SRAM keeps exact) has matching
        replicas, so the scan passes it without reading them.
        """
        row = self.row_ptr.value
        if self.phase.value == PHASE_WRITEBACK:
            written = None
            if core_write_row != row:
                sram.scrub_write(row, self.pending_word.value)
                written = row
            self.phase.write(PHASE_READ)
            self.row_ptr.write((row + 1) % self.rows)
            return written
        if row in sram.dirty:  # the replicas disagree: vote now, write back next step
            self.pending_word.write(vote3(*sram.scrub_read(row)))
            self.phase.write(PHASE_WRITEBACK)
            return None
        if row >= sram.rows:
            sram.scrub_read(row)  # raises: an upset pointer past the last row
        self.row_ptr.write((row + 1) % self.rows)
        return None

    def merge_store(self, sram, row):
        """The core stored into ``row`` on a cycle without a scrub step: if the row
        waits for its write-back, vote it again so the write-back keeps the store."""
        if row == self.row_ptr.value and self.phase.value == PHASE_WRITEBACK:
            self.pending_word.write(vote3(*sram.scrub_read(row)))

    def skip_clean(self, sram, start, end, divider=1):
        """Fast-forward the scrub cycles ``start .. end - 1`` over clean rows.

        A step is due on every cycle that is a multiple of ``divider``. The scan
        advances exactly as :meth:`step` would while each due step is a clean read,
        and stops before the first due step that would read a row in ``sram.dirty``
        or write back. Returns the cycle it stopped at (``end`` when every due step
        was clean). Costs O(1 + dirty rows).
        """
        due = (end - 1) // divider - (start - 1) // divider
        row = self.row_ptr.value
        if self.phase.value != PHASE_READ or row >= self.rows:
            clean = 0  # step() must run: a write-back, or an out-of-range pointer
        elif sram.dirty:
            clean = min(due, min((r - row) % self.rows for r in sram.dirty))
        else:
            clean = due
        if clean:
            self.row_ptr.write((row + clean) % self.rows)
        if clean == due:
            return end
        return -(-start // divider) * divider + clean * divider


def worst_case_correction_cycles(rows, other_dirty_rows=0):
    """Analytic upper bound on scrub steps to correct one upset row.

    An upset landing just after its row was scanned waits a full pass of ``rows``
    reads; each other dirty row encountered on the way adds one write-back step;
    the final write-back adds one more. Latency is counted inclusively from the
    injection cycle through the write-back cycle, so a 1-row memory takes 2 steps
    (read, then write-back).
    """
    if rows < 1:
        raise ValueError("rows must be >= 1")
    return rows + other_dirty_rows + 1
