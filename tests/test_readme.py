"""The README's library quick tour runs as written."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    names: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(blocks[0], names)
    assert names["d"].base == 1
    assert names["trace"].max_residual < 1e-12
    report = names["report"]
    assert report.criterion_all and report.bound_all
    assert report.decay_class.value == "tends_to_zero"
    assert out.getvalue().splitlines()[-1] == "True True tends_to_zero"
