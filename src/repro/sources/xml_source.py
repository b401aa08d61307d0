"""XML reader/writer for hierarchical datasets (the DBLP format, §8).

Documents look like DBLP's article dumps::

    <records>
      <record>
        <title>...</title>
        <authors><author>A</author><author>B</author></authors>
      </record>
    </records>

List-typed fields become a wrapper element with one child per item; scalars
become simple elements.  Parsing uses the stdlib ElementTree.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Any, Iterable

from ..errors import DataSourceError, SchemaError
from .schema import Schema

_ITEM_TAGS = {"authors": "author", "keywords": "keyword"}


def write_xml(
    path: str | Path,
    records: Iterable[dict[str, Any]],
    root_tag: str = "records",
    record_tag: str = "record",
) -> int:
    root = ET.Element(root_tag)
    count = 0
    for record in records:
        element = ET.SubElement(root, record_tag)
        for name, value in record.items():
            if isinstance(value, list):
                wrapper = ET.SubElement(element, name)
                item_tag = _ITEM_TAGS.get(name, "item")
                for item in value:
                    child = ET.SubElement(wrapper, item_tag)
                    child.text = "" if item is None else str(item)
            else:
                child = ET.SubElement(element, name)
                child.text = "" if value is None else str(value)
        count += 1
    ET.ElementTree(root).write(path, encoding="unicode", xml_declaration=True)
    return count


def read_xml(
    path: str | Path,
    schema: Schema | None = None,
    record_tag: str = "record",
) -> list[dict[str, Any]]:
    path = Path(path)
    if not path.exists():
        raise DataSourceError(f"no such XML file: {path}")
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise DataSourceError(f"{path}: invalid XML: {exc}") from exc
    records: list[dict[str, Any]] = []
    columns = list(zip(schema.names, schema.casters())) if schema is not None else []
    for number, element in enumerate(tree.getroot().iter(record_tag), start=1):
        record: dict[str, Any] = {}
        for child in element:
            if len(child):  # wrapper with item children -> list field
                record[child.tag] = [item.text or "" for item in child]
            else:
                record[child.tag] = child.text or ""
        if schema is not None:
            try:
                record = {name: cast(record.get(name)) for name, cast in columns}
            except SchemaError as exc:
                exc.location = f"{path}: record {number}"
                raise
        records.append(record)
    return records
