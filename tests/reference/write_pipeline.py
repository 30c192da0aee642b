"""Write ``pipeline.json`` beside this script: the numbers of the pipeline
fixture in ``tests/test_cli.py``, which ``test_pipeline_matches_the_reference``
compares with the fixture's outputs.

Run it from anywhere, with the test dependencies installed:

    python tests/reference/write_pipeline.py [OUT]

``OUT`` defaults to ``tests/reference/pipeline.json``.  A change that moves
the pipeline's numbers writes the file again and states which values moved,
by how much, and which oracle judged them.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
# this checkout's package, in this process and in the CLI processes the fixture starts
sys.path[:0] = [str(HERE.parent), str(SRC)]
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))

import test_cli  # noqa: E402


def main(out) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        spec = test_cli.write_fixture_spec(tmp / "model_spec.json")
        panel = test_cli.simulate_fixture_panel(spec, tmp / "panel.csv")
        numbers = test_cli.pipeline_numbers(test_cli.run_pipeline(panel, spec, tmp))
    Path(out).write_text(json.dumps(numbers, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else HERE / "pipeline.json")
