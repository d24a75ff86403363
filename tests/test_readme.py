"""README's `$ cavmag ...` transcripts, replayed in process so the
documented commands and their stdout cannot drift from the code."""

import re
import shlex
from pathlib import Path

from cavmag.cli import main

ROOT = Path(__file__).resolve().parent.parent


def transcripts():
    """(argv, expected stdout) of each `$ cavmag` line of README's sh blocks, in order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    runs = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        out = None  # lines before a block's first `$` are not output
        for line in block.splitlines():
            if line.startswith("$ "):
                out = []
                runs.append((shlex.split(line[2:]), out))
            elif out is not None:
                out.append(line)
    return [(argv, "".join(f"{line}\n" for line in out)) for argv, out in runs]


def test_readme_transcripts_match_the_cli(tmp_path, monkeypatch, capsys):
    runs = transcripts()
    assert [argv[1] for argv, _ in runs] == ["kittel", "map", "synth", "fit", "thickness"]
    monkeypatch.chdir(tmp_path)  # outputs land in tmp_path; configs are read from the repo
    for argv, expected in runs:
        assert argv[0] == "cavmag"
        args = [str(ROOT / a) if a.startswith("configs/") else a for a in argv[1:]]
        assert main(args) == 0, argv
        assert capsys.readouterr().out == expected, argv
