"""The README's library quick tour runs as written, every reference to one
of its sections names a heading it has, and its release section is the
package's version."""

import contextlib
import io
import pathlib
import re

import nablafrac

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_section_references_name_a_heading():
    # code blocks hold '# ' lines that are no headings
    text = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    headings = set(re.findall(r"^#+ (.*?)\s*$", text, re.M))
    references = set()
    for path in sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("tests/**/*.py")):
        # a reference may wrap across lines
        words = " ".join(path.read_text().split())
        references |= {(path.name, name) for name in re.findall(r'README,? "([^"]+)"', words)}
    assert references
    assert {(file, name) for file, name in references if name not in headings} == set()


def test_the_release_section_names_the_package_version():
    assert re.findall(r"^## Changes in (\S+)$", README.read_text(), re.M) == [nablafrac.__version__]
