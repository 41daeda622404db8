"""Each CLI command imports only what it runs.

Every case runs in a fresh interpreter, so the modules it reports are the
ones the command itself loaded: ``check``, ``query`` and ``insert`` load no
F-logic->OWL translator, RDF/XML writer, ``xml.sax`` or ``dataclasses``, and
``translate`` loads no engine in either direction.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import owlfl

SRC = Path(__file__).resolve().parents[1] / "src"

KB = """<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns="http://example.org/wine#" xml:base="http://example.org/wine">
  <owl:Class rdf:about="#RedWine">
    <rdfs:subClassOf rdf:resource="#Wine"/>
  </owl:Class>
  <owl:Thing rdf:about="#merlot">
    <rdf:type rdf:resource="#RedWine"/>
  </owl:Thing>
</rdf:RDF>
"""

# run owlfl.cli.main on the arguments; print the modules it loaded
CHILD = """
import contextlib, io, json, sys
before = set(sys.modules)
from owlfl.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
print(json.dumps([rc, sorted(set(sys.modules) - before)]))
"""

TRANSLATE_ONLY = {"owlfl.fl_to_owl", "owlfl.owl_writer", "xml.sax",
                  "dataclasses"}


def _loaded(tmp_path, *argv):
    kb = tmp_path / "kb.owl"
    kb.write_text(KB, encoding="utf-8")
    argv = [str(kb) if a == "KB" else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True)
    rc, modules = json.loads(proc.stdout)
    return rc, set(modules)


@pytest.mark.parametrize("argv", [
    ("check", "KB"),
    ("query", "KB", "instances", "Wine"),
    ("insert", "KB", "merlot:Wine."),
], ids=lambda a: a[0])
def test_engine_commands_skip_the_translate_modules(tmp_path, argv):
    rc, loaded = _loaded(tmp_path, *argv)
    assert rc == 0
    assert "owlfl.engine" in loaded
    assert not loaded & TRANSLATE_ONLY


def test_owl_to_flora_skips_the_engine(tmp_path):
    rc, loaded = _loaded(tmp_path, "translate", "--from", "owl", "--to",
                         "flora", "KB", "-o", str(tmp_path / "kb.flr"))
    assert rc == 0
    assert "owlfl.owl_to_fl" in loaded
    assert "owlfl.engine" not in loaded


def test_flora_to_owl_skips_the_engine(tmp_path):
    flr = tmp_path / "kb.flr"
    flr.write_text("RedWine::Wine.\nmerlot:RedWine.\n", encoding="utf-8")
    rc, loaded = _loaded(tmp_path, "translate", "--from", "flora", "--to",
                         "owl", str(flr), "-o", str(tmp_path / "back.owl"))
    assert rc == 0
    assert "owlfl.fl_to_owl" in loaded
    assert "owlfl.engine" not in loaded


def test_every_public_name_imports():
    assert set(owlfl.__all__) <= set(dir(owlfl))
    for name in owlfl.__all__:
        namespace = {}
        exec(f"from owlfl import {name}", namespace)
        assert namespace[name] is getattr(owlfl, name)
    with pytest.raises(ImportError):
        exec("from owlfl import no_such_name", {})
