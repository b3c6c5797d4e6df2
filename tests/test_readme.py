import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_verbatim(capsys):
    # the example ends in `assert store == truth.store`, so this guards
    # the documented library API as well as the text
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                          re.DOTALL | re.MULTILINE)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
