import dataclasses
import pathlib
import re

from cstar_mixing.config import Config

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cstar_mixing"


def test_every_config_field_is_read():
    # a knob that no module reads is dead weight in every report and file;
    # only reads through a config receiver count, so that a same-named
    # attribute of something else (args.seed, report.seed) hides nothing
    text = "\n".join(p.read_text() for p in sorted(SRC.glob("*.py"))
                     if p.name != "config.py")
    unread = [f.name for f in dataclasses.fields(Config)
              if not re.search(rf"\b(?:config|cfg)\.{f.name}\b", text)]
    assert unread == []
