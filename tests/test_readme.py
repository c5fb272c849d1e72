import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    # the README's documented API: a change to it fails here until the sketch is updated
    sketch = re.search(r"^## Library sketch\n\n```python\n(.*?)^```$", README.read_text(),
                       re.MULTILINE | re.DOTALL)
    assert sketch is not None, "README has no Library sketch code block"
    exec(compile(sketch.group(1), f"{README}:Library sketch", "exec"), {})
