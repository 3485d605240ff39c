"""README examples: the Python blocks run, and the model files load."""

import re
from pathlib import Path

from walkfluct.cli import load_model

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.S | re.M)


def test_readme_python_blocks_run():
    # the blocks build on each other, as a reader runs them in one session
    blocks = _blocks("python")
    assert blocks
    namespace: dict = {}
    for code in blocks:
        exec(compile(code, "README.md", "exec"), namespace)


def test_readme_model_files_load(tmp_path):
    blocks = _blocks("yaml")
    assert blocks
    for i, text in enumerate(blocks):
        path = tmp_path / f"model{i}.yaml"
        path.write_text(text)
        assert load_model(str(path)).rational is not None
