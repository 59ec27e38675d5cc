"""Tele-KG construction and SPARQL-style querying.

Shows the expert workflow the paper describes (Sec. I): build the Tele-KG,
retrieve background knowledge with basic-graph-pattern queries, and serialise
triples into prompt sentences for implicit knowledge injection.

    python examples/kg_queries.py
"""

from repro.kg import Pattern, Variable, build_tele_kg, query, serialize_kg
from repro.kg.query import ask
from repro.world import TelecomWorld


def main() -> None:
    world = TelecomWorld.generate(seed=3)
    kg = build_tele_kg(world)
    print(f"Tele-KG: {kg.describe()}")

    # Q1: which events does each SMF-hosted alarm trigger?
    alarm, effect = Variable("alarm"), Variable("effect")
    rows = query(kg, [Pattern(alarm, "occursOn", "NET-SMF"),
                      Pattern(alarm, "trigger", effect)])
    print(f"\nalarms on the SMF trigger {len(rows)} downstream events; first 3:")
    for row in rows[:3]:
        print(f"  {kg.entity(row['alarm']).surface[:50]:<52} -> "
              f"{kg.entity(row['effect']).surface[:50]}")

    # Q2: two-hop — root alarms whose effects cascade further.
    a, b, c = Variable("a"), Variable("b"), Variable("c")
    cascades = query(kg, [Pattern(a, "trigger", b),
                          Pattern(b, "trigger", c)], limit=5)
    print(f"\nfirst {len(cascades)} two-hop cascades:")
    for row in cascades:
        print("  " + " -> ".join(
            kg.entity(row[v]).surface[:30] for v in ("a", "b", "c")))

    # Q3: ASK — is any critical alarm connected to a KPI?
    print("\nany trigger chain at all?",
          ask(kg, [Pattern(a, "trigger", b)]))

    # Serialisation for implicit knowledge injection (Sec. IV-A1).
    sentences = serialize_kg(kg)
    print(f"\nKG serialises to {len(sentences)} prompt sentences; first 2:")
    for sentence in sentences[:2]:
        print("  ", sentence[:100])


if __name__ == "__main__":
    main()
