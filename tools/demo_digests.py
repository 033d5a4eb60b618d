"""Print the sha256 of every demo command's stdout and of every file it writes.

A check that a change keeps the CLI's outputs byte for byte: run it on two
checkouts and diff the outputs.

    PYTHONPATH=src python tools/demo_digests.py > demo.txt

It runs, in order and in a fresh temporary directory:

- every ``$ nvmag`` example of README.md, writing the file a ``$ cat``
  example shows before the command that reads it;
- an abundance sweep and a field sweep with ``--plot``;
- ``reconstruct --resolve-true`` on the README's measurement file;
- ``odmr --candidates`` for each outcome of the alignment resolution: an
  antiparallel pair, no candidate in tolerance, a tie between distinct
  directions and a single candidate, from candidate files it writes.

After each command it prints ``<command> stdout <sha256>``, then
``<path> <sha256>`` for each file the command wrote or changed.  Run
manifests are left out: they hold wall times.  A command that does not
exit 0 stops the run.  It calls nvmag's public API only: the ``nvmag``
entry point, ``nvmag.cli.main``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

from nvmag.cli import main as nvmag

README = Path(__file__).resolve().parents[1] / "README.md"

# the README's measurements read a field of (1, 2, 2) / 6 G
TRUE_FIELD = "0.16666666666666666,0.3333333333333333,0.3333333333333333"
SIGNS = [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
EXTRA = [
    ("nvmag sweep --abundances 0.003,0.011,0.03 --realizations 4 --out-dir abundance --plot",
     {}),
    ("nvmag sweep --fields 5,10,20 --realizations 4 --out-dir field --plot", {}),
    (f"nvmag reconstruct --measurements demo/meas.json --resolve-true {TRUE_FIELD}"
     " --out-dir resolve", {}),
    (f"nvmag odmr --field 0.5 --candidates pair.json --true-field {TRUE_FIELD}"
     " --out-dir pair",
     {"pair.json": [[sx / 6, sy / 3, sz / 3] for sx, sy, sz in SIGNS]}),
    ("nvmag odmr --field 0.5 --candidates none.json --true-field 0.5,0,0 --out-dir none",
     {"none.json": [[sx * 0.3, sy * 0.3, sz * 0.3] for sx, sy, sz in SIGNS]}),
    ("nvmag odmr --field 0.1 --candidates tie.json --true-field 0,0,0.1 --out-dir tie",
     {"tie.json": [[0.06, 0.08, 0.0], [0.08, 0.06, 0.0]]}),
    ("nvmag odmr --field 0.5 --candidates one.json --true-field 0,0,0.5 --out-dir one",
     {"one.json": [[0.0, 0.0, 0.5]]}),
]


def readme_steps() -> list[tuple[str, dict]]:
    """Each ``$ nvmag`` command of README.md, with the files ``$ cat`` shows before it."""
    blocks = re.split(r"^```.*\n", README.read_text(), flags=re.M)[1::2]
    steps, inputs = [], {}
    for block in blocks:
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.rstrip("\n").split("\n")
            if command.startswith("cat "):
                inputs[command[4:].strip()] = "\n".join(shown) + "\n"
            elif command.startswith("nvmag "):
                steps.append((command, inputs))
                inputs = {}
    return steps


def digests(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and not path.name.endswith("_manifest.json")
    }


def run(command: str, inputs: dict, root: Path) -> None:
    for name, content in inputs.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    before = digests(root)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = nvmag(shlex.split(command)[1:])
    if code != 0:
        sys.exit(f"{command} exited {code}")
    print(f"{command} stdout {hashlib.sha256(out.getvalue().encode()).hexdigest()}")
    for name, digest in digests(root).items():
        if before.get(name) != digest:
            print(f"{name} {digest}")


def main() -> None:
    steps = readme_steps() + EXTRA
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for command, inputs in steps:
            run(command, inputs, Path(tmp))


if __name__ == "__main__":
    main()
