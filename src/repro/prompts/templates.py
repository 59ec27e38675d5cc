"""Prompt template construction (Sec. IV-A2, Fig. 3).

Structured machine data and KG triples are disordered relative to natural
language; the paper wraps every input with special prompt tokens announcing
the category of the immediately following content — ``[ALM]`` alarm, ``[KPI]``
KPI, ``[ENT]`` entity, ``[REL]`` relation, ``[ATTR]`` attribute, ``[LOC]``
location, ``[DOC]`` document, ``[NUM]`` numeric — with ``|`` separating type
names from their values.  The ``[NUM]`` token additionally marks the position
whose embedding the adaptive numeric encoder replaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.world.episodes import LogRecord

ALM = "[ALM]"
KPI = "[KPI]"
ENT = "[ENT]"
REL = "[REL]"
ATTR = "[ATTR]"
LOC = "[LOC]"
DOC = "[DOC]"
NUM = "[NUM]"

#: All prompt tokens of the paper (Fig. 3), inserted as special tokens of
#: KTeleBERT's vocabulary.
ALL_PROMPT_TOKENS: tuple[str, ...] = (ALM, KPI, ENT, REL, ATTR, LOC, DOC, NUM)

# Extension tokens for the paper's declared future-work data sources
# (signaling flow and configuration data, Sec. IV-B).
SIG = "[SIG]"
CFG = "[CFG]"

#: Extension prompt tokens (not part of the paper's Fig. 3 set).
EXTENSION_PROMPT_TOKENS: tuple[str, ...] = (SIG, CFG)

#: Separator between a field's type name and its value.
FIELD_SEPARATOR = "|"


def wrap_alarm_log(name: str, severity: str | None = None,
                   location: str | None = None,
                   attributes: dict[str, str] | None = None) -> str:
    """Wrap one alarm log record: ``[ALM] name | [ATTR] severity | ...``."""
    parts = [f"{ALM} {name}"]
    if severity is not None:
        parts.append(f"{ATTR} severity {FIELD_SEPARATOR} {severity}")
    if location is not None:
        parts.append(f"{LOC} {location}")
    for key, value in (attributes or {}).items():
        parts.append(f"{ATTR} {key} {FIELD_SEPARATOR} {value}")
    return " ".join(parts)


def wrap_kpi_log(tag_name: str, value: float | None = None,
                 location: str | None = None) -> str:
    """Wrap one KPI reading: ``[KPI] tag | [NUM] value``.

    The literal value token after ``[NUM]`` is a placeholder — during encoding
    the ANEnc output embedding is injected at the ``[NUM]`` position (Fig. 4),
    and the value token itself is excluded from MLM targets.
    """
    parts = [f"{KPI} {tag_name}"]
    if value is not None:
        parts.append(f"{NUM} {value:.6g}")
    if location is not None:
        parts.append(f"{LOC} {location}")
    return f" {FIELD_SEPARATOR} ".join(parts)


def wrap_triple(head: str, relation: str, tail: str) -> str:
    """Serialise a relational triple: ``[ENT] h | [REL] r | [ENT] t``."""
    return (f"{ENT} {head} {FIELD_SEPARATOR} {REL} {relation} "
            f"{FIELD_SEPARATOR} {ENT} {tail}")


def wrap_attribute(entity: str, attribute: str, value) -> str:
    """Serialise an attribute triple; numeric values get the ``[NUM]`` marker."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        rendered = f"{NUM} {float(value):.6g}"
    else:
        rendered = str(value)
    return (f"{ENT} {entity} {FIELD_SEPARATOR} {ATTR} {attribute} "
            f"{FIELD_SEPARATOR} {rendered}")


def wrap_entity(name: str, attributes: dict[str, object] | None = None) -> str:
    """Wrap an entity surface, optionally with attribute context appended.

    This is the "entity mapping w/ Attr." service-delivery format
    (Sec. V-A3).
    """
    parts = [f"{ENT} {name}"]
    for key, value in (attributes or {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            parts.append(f"{ATTR} {key} {FIELD_SEPARATOR} {NUM} {float(value):.6g}")
        else:
            parts.append(f"{ATTR} {key} {FIELD_SEPARATOR} {value}")
    return " ".join(parts)


def wrap_document_sentence(sentence: str) -> str:
    """Wrap a document sentence with the ``[DOC]`` prompt."""
    return f"{DOC} {sentence}"


def wrap_signaling(procedure: str, rendered_message: str) -> str:
    """Wrap a signaling-flow record (future-work extension): ``[SIG] ...``."""
    return (f"{SIG} {procedure} {FIELD_SEPARATOR} {rendered_message}")


def wrap_config(node: str, parameter: str, value, kind: str) -> str:
    """Wrap a configuration record (future-work extension): ``[CFG] ...``.

    Numeric parameters get the ``[NUM]`` marker so they flow through ANEnc
    exactly like KPI values.
    """
    if kind == "numeric":
        rendered = f"{NUM} {float(value):.6g}"
    else:
        rendered = str(value)
    return (f"{CFG} {parameter} {FIELD_SEPARATOR} {rendered} "
            f"{FIELD_SEPARATOR} {LOC} {node}")


def wrap_log_record(record: LogRecord) -> str:
    """Dispatch a :class:`~repro.world.episodes.LogRecord` to its template."""
    if record.kind == "alarm":
        return wrap_alarm_log(record.tag, severity=record.severity,
                              location=record.node,
                              attributes={"interface": record.interface}
                              if record.interface else None)
    return wrap_kpi_log(record.tag, value=record.value, location=record.node)


@dataclass(frozen=True)
class PromptTemplates:
    """Namespace object bundling the template functions (convenience API)."""

    alarm = staticmethod(wrap_alarm_log)
    kpi = staticmethod(wrap_kpi_log)
    triple = staticmethod(wrap_triple)
    attribute = staticmethod(wrap_attribute)
    entity = staticmethod(wrap_entity)
    document = staticmethod(wrap_document_sentence)
    log_record = staticmethod(wrap_log_record)
