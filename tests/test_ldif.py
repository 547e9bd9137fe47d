"""Unit and property tests for LDIF parsing and serialization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LdifError
from repro.ldif.reader import parse_ldif, parse_ldif_records
from repro.ldif.writer import serialize_entry, serialize_ldif
from repro.model.instance import DirectoryInstance
from repro.workloads import figure1_instance, generate_whitepages

SIMPLE = """\
version: 1

dn: o=att
objectClass: organization
objectClass: top
o: att

dn: ou=labs,o=att
objectClass: orgUnit
objectClass: top
ou: labs
"""


class TestReader:
    def test_parse_records(self):
        records = parse_ldif_records(SIMPLE)
        assert len(records) == 2
        assert str(records[0].dn) == "o=att"
        assert records[0].object_classes() == ["organization", "top"]
        assert records[1].other_attributes() == {"ou": ["labs"]}

    def test_parse_to_instance(self):
        instance = parse_ldif(SIMPLE)
        assert len(instance) == 2
        assert instance.find("ou=labs,o=att").belongs_to("orgUnit")

    def test_records_in_any_order(self):
        blocks = SIMPLE.split("\n\n")
        shuffled = blocks[0] + "\n\n" + blocks[2] + "\n\n" + blocks[1]
        instance = parse_ldif(shuffled)
        assert len(instance) == 2

    def test_missing_parent_rejected(self):
        with pytest.raises(LdifError):
            parse_ldif("dn: ou=orphan,o=ghost\nobjectClass: top\n")

    def test_record_without_dn_rejected(self):
        with pytest.raises(LdifError):
            parse_ldif_records("objectClass: top\n")

    def test_record_without_object_class_rejected(self):
        with pytest.raises(LdifError):
            parse_ldif("dn: o=att\no: att\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\ndn: o=att\n# inner comment\nobjectClass: top\n"
        assert len(parse_ldif(text)) == 1

    def test_continuation_lines(self):
        text = "dn: o=att\nobjectClass: top\ndescription: part one\n  and part two\n"
        records = parse_ldif_records(text)
        assert ("description", "part one and part two") in records[0].attributes

    def test_base64_values(self):
        import base64

        payload = base64.b64encode("héllo".encode()).decode()
        text = f"dn: o=att\nobjectClass: top\ncn:: {payload}\n"
        records = parse_ldif_records(text)
        assert ("cn", "héllo") in records[0].attributes

    def test_invalid_base64_rejected(self):
        with pytest.raises(LdifError):
            parse_ldif_records("dn: o=att\ncn:: !!!not-base64!!!\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(LdifError):
            parse_ldif_records("dn: o=att\nthis line has no colon\n")

    def test_duplicate_dn_rejected(self):
        text = "dn: o=att\nobjectClass: top\n\ndn: o=att\nobjectClass: top\n"
        with pytest.raises(LdifError):
            parse_ldif(text)


def _shuffled_records(text, seed):
    """The records of ``text`` in a seeded random order that keeps each
    parent's children in their document order (a reader adds siblings
    in the order it meets them), so children often come first."""
    records = parse_ldif_records(text)
    blocks = [block for block in text.split("\n\n") if block.startswith("dn:")]
    assert len(blocks) == len(records)
    rng = random.Random(seed)
    slots = list(range(len(blocks)))
    rng.shuffle(slots)
    by_parent = {}
    for index, record in enumerate(records):
        by_parent.setdefault(str(record.dn.parent()), []).append(index)
    placed = [None] * len(blocks)
    for indexes in by_parent.values():
        for slot, index in zip(sorted(slots[i] for i in indexes), indexes):
            placed[slot] = index
    return [blocks[index] for index in placed], [records[index] for index in placed]


def _shape(instance):
    """Per entry in document order: DN, child DNs in order, classes and
    values — what two parses of one directory must agree on."""
    return [
        (
            instance.dn_string_of(entry),
            [instance.dn_string_of(child) for child in instance.children_of(entry)],
            sorted(entry.classes),
            {name: entry.values(name) for name in entry.attribute_names()},
        )
        for entry in instance
    ]


class TestStreamingParse:
    """:func:`parse_ldif` adds each record as it completes; only a record
    whose parent has not appeared yet waits for it."""

    def test_a_shuffled_document_parses_to_the_same_directory(self):
        original = generate_whitepages(
            orgs=2, units_per_level=2, depth=2, persons_per_unit=4, seed=5
        )
        text = serialize_ldif(original)
        for seed in range(3):
            blocks, records = _shuffled_records(text, seed)
            seen = set()
            early = 0
            for record in records:
                early += str(record.dn.parent()) not in seen and record.dn.depth() > 1
                seen.add(str(record.dn))
            assert early > 10, "the shuffle must put children before parents"
            shuffled = parse_ldif(
                "\n\n".join(blocks) + "\n", attributes=original.attributes
            )
            assert _shape(shuffled) == _shape(original)

    def test_a_waiting_chain_lands_under_its_late_root(self):
        text = (
            "dn: uid=p,ou=u,o=late\nobjectClass: top\n\n"
            "dn: ou=u,o=late\nobjectClass: top\n\n"
            "dn: uid=q,ou=u,o=late\nobjectClass: top\n\n"
            "dn: o=late\nobjectClass: top\n"
        )
        instance = parse_ldif(text)
        assert [instance.dn_string_of(entry) for entry in instance] == [
            "o=late", "ou=u,o=late", "uid=p,ou=u,o=late", "uid=q,ou=u,o=late",
        ]

    def test_the_refusals_keep_their_messages(self):
        with pytest.raises(LdifError, match=r"^record ou=orphan,o=ghost has no "
                           r"parent record o=ghost$"):
            parse_ldif("dn: ou=orphan,o=ghost\nobjectClass: top\n")
        # deeper orphans wait too; the shallowest, first in the
        # document, is named (what a depth-ordered load stops at)
        with pytest.raises(LdifError, match=r"^record ou=b,o=ghost has no "
                           r"parent record o=ghost$"):
            parse_ldif(
                "dn: uid=x,ou=a,o=ghost\nobjectClass: top\n\n"
                "dn: ou=b,o=ghost\nobjectClass: top\n\n"
                "dn: ou=a,o=ghost\nobjectClass: top\n"
            )
        with pytest.raises(LdifError, match=r"^cannot add record o=att: an entry "
                           r"with DN 'o=att' already exists$"):
            parse_ldif("dn: o=att\nobjectClass: top\n\ndn: o=att\nobjectClass: top\n")
        with pytest.raises(LdifError, match=r"^record o=att has no objectClass values$"):
            parse_ldif("dn: o=att\no: att\n")

    def test_record_parsing_keeps_its_list_api(self):
        records = parse_ldif_records(SIMPLE + "\ndn: ou=x,o=absent\nobjectClass: top\n")
        assert isinstance(records, list)
        assert [str(record.dn) for record in records] == [
            "o=att", "ou=labs,o=att", "ou=x,o=absent",
        ]

    def test_crlf_lines_parse_like_lf_lines(self):
        assert _shape(parse_ldif(SIMPLE.replace("\n", "\r\n"))) == _shape(
            parse_ldif(SIMPLE)
        )


class TestWriter:
    def test_serialize_entry_contains_pairs(self):
        d = DirectoryInstance()
        d.add_entry(None, "o=att", ["organization", "top"], {"o": ["att"]})
        text = serialize_entry(d.entry("o=att"))
        assert "dn: o=att" in text
        assert "objectClass: organization" in text
        assert "o: att" in text

    def test_unsafe_values_base64_encoded(self):
        d = DirectoryInstance()
        d.add_entry(None, "o=att", ["top"], {"cn": ["héllo"]})
        text = serialize_entry(d.entry("o=att"))
        assert "cn:: " in text

    def test_leading_space_base64_encoded(self):
        d = DirectoryInstance()
        d.add_entry(None, "o=att", ["top"], {"cn": [" padded"]})
        assert "cn:: " in serialize_entry(d.entry("o=att"))

    def test_long_lines_folded(self):
        d = DirectoryInstance()
        d.add_entry(None, "o=att", ["top"], {"description": ["x" * 200]})
        text = serialize_entry(d.entry("o=att"))
        assert all(len(line) <= 76 for line in text.splitlines())

    def test_non_string_values_serialized(self):
        d = DirectoryInstance()
        d.add_entry(None, "o=att", ["top"], {"count": [42]})
        assert "count: 42" in serialize_entry(d.entry("o=att"))


class TestRoundTrip:
    def test_figure1_roundtrip(self):
        original = figure1_instance()
        text = serialize_ldif(original)
        parsed = parse_ldif(text, attributes=original.attributes)
        assert len(parsed) == len(original)
        laks = parsed.entry("uid=laks,ou=databases,ou=attLabs,o=att")
        assert set(laks.values("mail")) == {
            "laks@cs.concordia.ca", "laks@cse.iitb.ernet.in"
        }
        assert laks.classes == original.entry(
            "uid=laks,ou=databases,ou=attLabs,o=att"
        ).classes

    def test_generated_roundtrip(self):
        original = generate_whitepages(orgs=1, units_per_level=2, depth=2, seed=3)
        text = serialize_ldif(original)
        parsed = parse_ldif(text, attributes=original.attributes)
        assert len(parsed) == len(original)
        assert serialize_ldif(parsed) == text

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["cn", "description", "note"]),
                st.text(min_size=1, max_size=30),
            ),
            min_size=0,
            max_size=5,
        )
    )
    def test_arbitrary_values_roundtrip(self, pairs):
        d = DirectoryInstance()
        entry = d.add_entry(None, "o=t", ["top"])
        for name, value in pairs:
            entry.add_value(name, value)
        parsed = parse_ldif(serialize_ldif(d))
        reparsed = parsed.entry("o=t")
        for name, value in pairs:
            assert reparsed.has_value(name, value)
