"""Mappings between property graph values/names and RDF terms.

Covers the literal-value mapping in both directions, plain IRI/string
conversion, and the prefix-plus-percent-encoding templates that name
keys, labels and (unless they become blank nodes) vertices when a
property graph is turned into RDF-star.
"""

from __future__ import annotations

import math
import re
import urllib.parse
from dataclasses import dataclass, field

from .namespaces import XSD_BOOLEAN, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, XSD_STRING
from .pg import Boolean, Double, Integer, PropertyGraph, PropertyValue, Text
from .rdf import BNode, Iri, Literal

DEFAULT_PROPERTY_KEY_PREFIX = "http://example.org/property/"
DEFAULT_EDGE_LABEL_PREFIX = "http://example.org/relationship/"

LITERAL_MODES = ("strict", "lenient")

_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")
_DECIMAL_RE = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)\Z")
_DOUBLE_RE = re.compile(r"([+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?|-?INF|NaN)\Z")


class MappingConfigError(ValueError):
    """Invalid mapping configuration (bad prefix, overlapping prefixes, ...)."""


def _canonical_double(d: float) -> str:
    """Canonical lexical form: shortest round-trip decimal with an explicit
    E exponent, E0 appended to plain forms (0.5 -> "0.5E0")."""
    if math.isinf(d):
        return "INF" if d > 0 else "-INF"
    r = repr(d)
    if "e" in r:
        mantissa, _, exp = r.partition("e")
        if "." not in mantissa:
            mantissa += ".0"
        return f"{mantissa}E{int(exp)}"
    return r + "E0"


# The datatypes of value_to_literal, built once.
_XSD_INTEGER_IRI = Iri(XSD_INTEGER)
_XSD_DOUBLE_IRI = Iri(XSD_DOUBLE)
_XSD_BOOLEAN_IRI = Iri(XSD_BOOLEAN)


def value_to_literal(v: PropertyValue) -> Literal:
    """Map a property value to its canonical RDF literal.

    Text -> xsd:string, Integer -> xsd:integer, Double -> xsd:double,
    Boolean -> xsd:boolean; never language-tagged.
    """
    if isinstance(v, Text):
        return Literal(v.value)
    if isinstance(v, Integer):
        return Literal(str(v.value), _XSD_INTEGER_IRI)
    if isinstance(v, Double):
        return Literal(_canonical_double(v.value), _XSD_DOUBLE_IRI)
    if isinstance(v, Boolean):
        return Literal("true" if v.value else "false", _XSD_BOOLEAN_IRI)
    raise TypeError(f"not a PropertyValue: {v!r}")


def value_from_literal(l: Literal, mode: str = "lenient") -> PropertyValue | None:
    """Map a literal back to a property value, or None when undefined.

    Undefined for language-tagged literals, datatypes outside xsd
    string/integer/double/decimal/boolean, unparseable lexical forms, and
    integers longer than int() converts (sys.get_int_max_str_digits()).
    Lenient mode accepts any valid lexical form (xsd:decimal comes back as
    Double); strict mode accepts only the exact canonical forms that
    value_to_literal produces.
    """
    if mode not in LITERAL_MODES:
        raise ValueError(f"literal mode must be one of {LITERAL_MODES}: {mode!r}")
    if l.language is not None:
        return None
    dt = l.datatype.value
    lex = l.lexical_form
    v: PropertyValue | None = None
    if dt == XSD_STRING:
        v = Text(lex)
    elif dt == XSD_INTEGER:
        if _INTEGER_RE.fullmatch(lex):
            try:
                v = Integer(int(lex))
            except ValueError:  # more digits than sys.get_int_max_str_digits() allows
                pass
    elif dt == XSD_DOUBLE:
        if _DOUBLE_RE.fullmatch(lex) and lex != "NaN":
            v = Double(float(lex))
    elif dt == XSD_DECIMAL:
        if _DECIMAL_RE.fullmatch(lex):
            v = Double(float(lex))
    elif dt == XSD_BOOLEAN:
        if lex in ("true", "false", "1", "0"):
            v = Boolean(lex in ("true", "1"))
    if v is None:
        return None
    if mode == "strict" and value_to_literal(v) != l:
        return None
    return v


def string_to_iri(s: str) -> Iri | None:
    """The IRI with text s (the inverse of Iri.value); None when s is not a
    valid absolute IRI."""
    try:
        return Iri(s)
    except (TypeError, ValueError):
        return None


def percent_encode(s: str) -> str:
    """Percent-encode every UTF-8 byte outside unreserved A-Za-z0-9-._~."""
    return urllib.parse.quote(s, safe="")


_ENCODED_RE = re.compile(r"([A-Za-z0-9._~-]|%[0-9A-Fa-f]{2})*\Z")


def percent_decode(s: str) -> str | None:
    """Inverse of percent_encode; None on stray '%' or invalid UTF-8."""
    if not _ENCODED_RE.fullmatch(s):
        return None
    try:
        return urllib.parse.unquote(s, errors="strict")
    except UnicodeDecodeError:
        return None


@dataclass(frozen=True)
class TemplateIriMapping:
    """Injective string-to-IRI mapping: prefix + percent-encoded name."""

    prefix: str

    def __post_init__(self) -> None:
        try:
            Iri(self.prefix)
        except (TypeError, ValueError) as exc:
            raise MappingConfigError(f"template prefix must be a valid IRI: {exc}") from exc

    def apply(self, name: str) -> Iri:
        return Iri(self.prefix + percent_encode(name))

    def invert(self, iri: Iri) -> str | None:
        """None when the IRI lacks the prefix or its suffix does not decode."""
        if not iri.value.startswith(self.prefix):
            return None
        return percent_decode(iri.value[len(self.prefix):])


def assign_vertex_identities(
    template: TemplateIriMapping | None, g: PropertyGraph
) -> dict[str, Iri | BNode]:
    """Injective map from vertex ids to RDF node terms, deterministic in
    the lexicographic order of vertex ids: blank nodes _:b1, _:b2, ...
    when template is None, else the template's IRI of each id."""
    ids = sorted(g.vertices)
    if template is None:
        return {v: BNode(f"b{i}") for i, v in enumerate(ids, start=1)}
    if isinstance(template, TemplateIriMapping):
        return {v: template.apply(v) for v in ids}
    raise TypeError(f"not a vertex identity strategy: {template!r}")


def parse_vertex_id_strategy(text: str) -> TemplateIriMapping | None:
    """Parse the configuration syntax: "bnode" (None) or "iri:<prefix>"."""
    if text == "bnode":
        return None
    if text.startswith("iri:"):
        return TemplateIriMapping(text[len("iri:"):])
    raise MappingConfigError(f'vertex id strategy must be "bnode" or "iri:<prefix>": {text!r}')


@dataclass(frozen=True)
class MappingConfig:
    """The mapping choices consumed by the transformations and the CLI."""

    property_key_prefix: str = DEFAULT_PROPERTY_KEY_PREFIX
    edge_label_prefix: str = DEFAULT_EDGE_LABEL_PREFIX
    # None: vertices become fresh blank nodes; else IRIs minted by the template.
    vertex_id_strategy: TemplateIriMapping | None = None
    key_map: TemplateIriMapping = field(init=False, repr=False, compare=False)
    label_map: TemplateIriMapping = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key_map", TemplateIriMapping(self.property_key_prefix))
        object.__setattr__(self, "label_map", TemplateIriMapping(self.edge_label_prefix))
        a, b = self.property_key_prefix, self.edge_label_prefix
        # One being a prefix of the other would let key and label IRIs collide.
        if a.startswith(b) or b.startswith(a):
            raise MappingConfigError(
                f"key and label prefixes must be distinct and prefix-free: {a!r} vs {b!r}"
            )
        if not isinstance(self.vertex_id_strategy, (TemplateIriMapping, type(None))):
            raise MappingConfigError(
                f"not a vertex identity strategy: {self.vertex_id_strategy!r}"
            )
