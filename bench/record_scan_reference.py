"""Record ``scan_reference.csv``, the expected class of every default scan cell.

Run once, from the root of a checkout:

    python3 bench/record_scan_reference.py

Classes come from ``stability_scan`` on the default grid, except that a cell
whose ``mittag_leffler_seq`` trace is non-finite is recorded as ``unbounded``:
an overflowing solution diverges, whatever the windowed classifier says.  The
``overflows`` column marks those cells (1).  The committed file was recorded
from nablafrac 0.1.0, whose classifier labels 35 of the 36 overflowing cells
``bounded_nonvanishing``.
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

import numpy as np

import oracle
from workloads import DEFAULT_C, DEFAULT_NU, SCAN_N_MAX


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from nablafrac import mittag_leffler_seq, stability_scan

    warnings.simplefilter("ignore", RuntimeWarning)  # the overflow is what is recorded
    cells = stability_scan(DEFAULT_NU, DEFAULT_C, SCAN_N_MAX)
    with open(oracle.SCAN_REFERENCE, "w") as stream:
        stream.write("nu,c,decay_class,overflows\n")
        for cell in cells:
            finite = np.all(np.isfinite(mittag_leffler_seq(cell.c, cell.nu, SCAN_N_MAX)))
            label = cell.decay_class.value if finite else "unbounded"
            stream.write(f"{cell.nu!r},{cell.c!r},{label},{int(not finite)}\n")
    print(f"wrote {len(cells)} cells to {oracle.SCAN_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
