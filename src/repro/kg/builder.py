"""Builds the Tele-KG from a :class:`~repro.world.TelecomWorld`.

Knowledge sources mirror the paper's platform:

* expert trigger knowledge — every edge of the ground-truth causal graph
  becomes a ``trigger`` triple (this is the ``(Alm ..., trigger, KPI ...)``
  example from the introduction);
* product structure — alarms ``occursOn`` their NE type, KPIs ``measuredOn``
  theirs, NE types ``provide`` interfaces;
* deployment — NE instances ``instanceOf`` their type, ``connectedTo``
  topology neighbours, ``locatedAt`` sites, ``providedBy`` vendors;
* attributes — alarm severity, KPI unit and normal range (numeric!), node
  metadata.
"""

from __future__ import annotations

from repro.kg.graph import TeleKG
from repro.kg.schema import TeleSchema
from repro.world.world import TelecomWorld


def build_tele_kg(world: TelecomWorld) -> TeleKG:
    """Construct the Tele-KG for a generated world."""
    kg = TeleKG(TeleSchema())

    # --- catalog entities -------------------------------------------------
    for alarm in world.ontology.alarms:
        kg.add_entity(alarm.uid, alarm.name, "Alarm")
        kg.add_attribute(alarm.uid, "severity", alarm.severity)
        kg.add_attribute(alarm.uid, "theme", alarm.theme)
    for kpi in world.ontology.kpis:
        kg.add_entity(kpi.uid, kpi.name, "KPI")
        kg.add_attribute(kpi.uid, "unit", kpi.unit)
        kg.add_attribute(kpi.uid, "normal low", kpi.normal_low)
        kg.add_attribute(kpi.uid, "normal high", kpi.normal_high)
        kg.add_attribute(kpi.uid, "theme", kpi.theme)

    for name, ne_type in world.ontology.ne_types.items():
        kg.add_entity(f"NET-{name}", f"{name} network element",
                      "NetworkElementType")
        for iface in ne_type.interfaces:
            iface_uid = f"IF-{iface}"
            if not kg.has_entity(iface_uid):
                kg.add_entity(iface_uid, f"{iface} interface", "Interface")
            kg.add_triple(f"NET-{name}", "provide", iface_uid)

    # --- expert trigger knowledge -----------------------------------------
    for edge in world.causal_graph.edges:
        kg.add_triple(edge.source, "trigger", edge.target)

    # --- catalog → product links -------------------------------------------
    for alarm in world.ontology.alarms:
        kg.add_triple(alarm.uid, "occursOn", f"NET-{alarm.ne_type}")
        kg.add_triple(alarm.uid, "raisedVia", f"IF-{alarm.interface}")
    for kpi in world.ontology.kpis:
        kg.add_triple(kpi.uid, "measuredOn", f"NET-{kpi.ne_type}")

    # --- deployment ---------------------------------------------------------
    seen_locations: set[str] = set()
    seen_vendors: set[str] = set()
    topo = world.topology
    for node in topo.nodes:
        attrs = topo.attributes[node]
        node_uid = f"NEI-{node}"
        kg.add_entity(node_uid, node, "NetworkElementInstance")
        kg.add_triple(node_uid, "instanceOf", f"NET-{attrs['ne_type']}")
        location = attrs["location"]
        loc_uid = f"LOC-{location}"
        if location not in seen_locations:
            kg.add_entity(loc_uid, location, "Location")
            seen_locations.add(location)
        kg.add_triple(node_uid, "locatedAt", loc_uid)
        vendor = attrs["vendor"]
        vendor_uid = f"VEN-{vendor}"
        if vendor not in seen_vendors:
            kg.add_entity(vendor_uid, vendor, "Vendor")
            seen_vendors.add(vendor)
        kg.add_triple(node_uid, "providedBy", vendor_uid)
    for u, v in topo.edges:
        kg.add_triple(f"NEI-{u}", "connectedTo", f"NEI-{v}")

    return kg
