"""The repo's one journal format: JSON lines, torn-tail safe.

:func:`repro.ioutil.open_append` ends a torn last line before the next
append, :func:`repro.ioutil.append_record` writes one record durably,
:func:`repro.ioutil.read_records` skips what a crash or an editor left
behind, and :func:`repro.ioutil.make_event` builds the one event schema.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.ioutil import (
    append_record,
    find_repo_root,
    make_event,
    open_append,
    read_records,
)


class TestReadRecords:
    def test_missing_file_is_empty(self, tmp_path):
        assert read_records(tmp_path / "absent.jsonl") == []

    def test_torn_line_is_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"kind": "step", "step": 1, "loss": 1.0}\n'
                        '{"kind": "st\n')
        assert read_records(path) == [{"kind": "step", "step": 1,
                                       "loss": 1.0}]

    def test_blank_and_non_object_lines_are_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('\n   \n{"a": 1}\n[1, 2]\n"text"\n3\nnull\n'
                        '{"b": 2}\r\n{"c": ')
        assert read_records(path) == [{"a": 1}, {"b": 2}]

    def test_torn_multibyte_tail_is_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        whole = json.dumps({"note": "é"}, ensure_ascii=False).encode()
        path.write_bytes(whole + b"\n" + whole[:-3])  # cut inside "é"
        assert read_records(path) == [{"note": "é"}]

    def test_line_separator_inside_a_string_stays_one_record(self,
                                                            tmp_path):
        path = tmp_path / "journal.jsonl"
        append_record(path, {"note": "a\u2028b"})  # kept raw
        assert read_records(path) == [{"note": "a\u2028b"}]


class TestAppend:
    def test_torn_tail_is_ended_before_the_next_record(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        append_record(path, {"n": 1})
        with open(path, "ab") as handle:
            handle.write(b'{"n": ')            # a killed writer's fragment
        append_record(path, {"n": 2})
        assert read_records(path) == [{"n": 1}, {"n": 2}]
        assert path.read_bytes().endswith(b'{"n": \n{"n": 2}\n')

    def test_one_sorted_line_per_record(self, tmp_path):
        path = tmp_path / "sub" / "journal.jsonl"  # directory created
        append_record(path, {"b": 1, "a": "é"})
        assert path.read_bytes() == '{"a": "é", "b": 1}\n'.encode()

    def test_open_append_reports_the_offset_of_the_first_byte(self,
                                                            tmp_path):
        path = tmp_path / "log.jsonl"
        with open_append(path) as handle:       # created empty
            assert handle.tell() == 0
            handle.write(b"{}\n")
        with open_append(path) as handle:       # intact tail: no repair
            assert handle.tell() == 3
        path.write_bytes(b"{}\n{")
        with open_append(path) as handle:       # torn tail: one b"\n"
            assert handle.tell() == 5
            handle.write(b"{}\n")
        assert path.read_bytes() == b"{}\n{\n{}\n"


class TestMakeEvent:
    def test_schema_is_kind_time_and_fields(self):
        event = make_event("resume", step=3, loss=1.5)
        assert list(event) == ["kind", "time", "step", "loss"]
        assert event["kind"] == "resume"
        assert isinstance(event["time"], float)


def test_find_repo_root_walks_up_to_pyproject(tmp_path):
    (tmp_path / "pyproject.toml").write_text("")
    nested = tmp_path / "a" / "b"
    nested.mkdir(parents=True)
    assert find_repo_root(nested) == tmp_path.resolve()


#: Round trips of the text files the program writes for itself, each with
#: a non-ASCII string and the three separators ``str.splitlines`` breaks
#: on but JSON leaves raw.
_ROUND_TRIPS = r"""
import dataclasses, sys
from pathlib import Path
from repro.kg import build_tele_kg, export_json, export_ntriples, import_json
from repro.tokenization import Vocab
from repro.world import TelecomWorld, export_episodes, import_episodes

odd = "\u00e9\u2028\u2029\u0085"
out = Path(sys.argv[1])
world = TelecomWorld.generate(seed=0, alarms_per_theme=2, kpis_per_theme=2,
                              topology_nodes=6)
episodes = world.simulate_episodes(2)
first = episodes[0].records[0]
episodes[0].records[0] = dataclasses.replace(first, tag=first.tag + odd)
restored = import_episodes(export_episodes(episodes, out / "episodes.jsonl"))
assert [e.records for e in restored] == [e.records for e in episodes]

kg = build_tele_kg(world)
kg.add_entity("odd", "label" + odd, kg.entities()[0].cls)
restored = import_json(export_json(kg, out / "kg.json"))
assert restored.entity("odd").surface == "label" + odd
lines = export_ntriples(kg, out / "kg.nt").read_bytes().decode().split("\n")
assert f'tele:odd rdfs:label "label{odd}" .' in lines

vocab = Vocab(["alarm", "t" + odd])
vocab.save(out / "vocab.json")
restored = Vocab.load(out / "vocab.json")
assert restored.token_to_id("t" + odd) == vocab.token_to_id("t" + odd)
"""


def test_owned_text_files_are_utf8_whatever_the_locale(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding",
         "-W", "error::EncodingWarning", "-c", _ROUND_TRIPS, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
