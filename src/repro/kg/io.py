"""Tele-KG import/export: N-Triples-style text and JSON.

Real platforms exchange KG snapshots between the construction pipeline and
consumers; these serializers give the Tele-KG a stable on-disk form.  The
N-Triples flavour writes one ``<head> <relation> <tail> .`` line per fact
with a simple URI scheme (``tele:`` prefix, percent-free underscore
escaping); the JSON form is lossless (entities with classes + surfaces,
relation triples, attribute triples with typed literals).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.ioutil import atomic_write_text
from repro.kg.graph import TeleKG
from repro.kg.schema import TeleSchema

_PREFIX = "tele:"


def _encode_uri(value: str) -> str:
    return _PREFIX + value.replace(" ", "_")


def _decode_uri(value: str) -> str:
    if not value.startswith(_PREFIX):
        raise ValueError(f"not a tele URI: {value!r}")
    return value[len(_PREFIX):].replace("_", " ")


def export_ntriples(kg: TeleKG, path: str | Path) -> Path:
    """Write relation triples as N-Triples-style lines.

    Entity classes are emitted as ``rdf:type`` facts and surfaces as
    ``rdfs:label`` literal facts, so the export is self-describing.  The
    file is UTF-8 and replaced atomically.
    """
    lines: list[str] = []
    for entity in kg.entities():
        lines.append(f"{_encode_uri(entity.uid)} rdf:type "
                     f"{_encode_uri(entity.cls)} .")
        lines.append(f'{_encode_uri(entity.uid)} rdfs:label '
                     f'"{entity.surface}" .')
    for triple in kg.triples:
        lines.append(f"{_encode_uri(triple.head)} "
                     f"{_encode_uri(triple.relation)} "
                     f"{_encode_uri(triple.tail)} .")
    for fact in kg.attributes:
        rendered = (f'"{fact.value}"' if not fact.is_numeric
                    else f'"{fact.value}"^^xsd:double')
        lines.append(f"{_encode_uri(fact.entity)} "
                     f"{_encode_uri('attr ' + fact.attribute)} {rendered} .")
    return atomic_write_text(path, "\n".join(lines) + "\n")


def export_json(kg: TeleKG, path: str | Path) -> Path:
    """Lossless JSON export, UTF-8, replaced atomically."""
    payload = {
        "entities": [{"uid": e.uid, "surface": e.surface, "cls": e.cls}
                     for e in kg.entities()],
        "triples": [{"head": t.head, "relation": t.relation, "tail": t.tail}
                    for t in kg.triples],
        "attributes": [{"entity": a.entity, "attribute": a.attribute,
                        "value": a.value,
                        "numeric": a.is_numeric}
                       for a in kg.attributes],
        "schema": {child: parent for child, parent
                   in kg.schema.parents.items()},
    }
    return atomic_write_text(path, json.dumps(payload, ensure_ascii=False))


def import_json(path: str | Path) -> TeleKG:
    """Rebuild a :class:`TeleKG` from :func:`export_json` output."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = TeleSchema(parents=dict(payload["schema"]))
    kg = TeleKG(schema)
    for entity in payload["entities"]:
        kg.add_entity(entity["uid"], entity["surface"], entity["cls"])
    for triple in payload["triples"]:
        kg.add_triple(triple["head"], triple["relation"], triple["tail"])
    for fact in payload["attributes"]:
        value = fact["value"]
        if fact["numeric"]:
            value = float(value)
        kg.add_attribute(fact["entity"], fact["attribute"], value)
    return kg
