"""README's "Environment" table lists exactly the ``REPRO_*`` variables
the code mentions, so a new knob cannot land undocumented (and a retired
one cannot linger in the docs)."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_environment_table_matches_the_source():
    in_source = set()
    for path in (ROOT / "src").rglob("*"):
        if path.suffix in (".py", ".c", ".h"):
            in_source.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Environment", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.M))
    assert documented == in_source
    assert len(documented) == 7
