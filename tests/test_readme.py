"""The README's library tour runs as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    text = README.read_text()
    section = text.split("## Library tour", 1)[1]
    tour = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(tour, "README.md (library tour)", "exec"), namespace)
    assert namespace["geom"].kernel.shape == (80, 64)
    assert namespace["traj"].status == "completed"
