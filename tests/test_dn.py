"""Unit and property tests for distinguished names."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ModelError
from repro.model.dn import DN, RDN, parse_dn, parse_rdn


class TestRdn:
    def test_str(self):
        assert str(RDN("uid", "laks")) == "uid=laks"

    def test_parse(self):
        assert parse_rdn("uid=laks") == RDN("uid", "laks")

    def test_parse_strips_whitespace(self):
        assert parse_rdn(" ou = databases ") == RDN("ou", "databases")

    def test_escaped_comma_in_value(self):
        rdn = RDN("cn", "Lakshmanan, Laks")
        assert str(rdn) == "cn=Lakshmanan\\, Laks"
        assert parse_rdn(str(rdn)) == rdn

    def test_escaped_equals_in_value(self):
        rdn = RDN("cn", "a=b")
        assert parse_rdn(str(rdn)) == rdn

    def test_missing_separator(self):
        with pytest.raises(ModelError):
            parse_rdn("no-separator")

    def test_empty_attribute(self):
        with pytest.raises(ModelError):
            parse_rdn("=value")


class TestDn:
    def test_parse_and_str(self):
        dn = parse_dn("uid=laks,ou=databases,o=att")
        assert dn.depth() == 3
        assert str(dn) == "uid=laks,ou=databases,o=att"

    def test_rdn_is_leaf_most(self):
        dn = parse_dn("uid=laks,ou=databases,o=att")
        assert dn.rdn == RDN("uid", "laks")

    def test_parent(self):
        dn = parse_dn("uid=laks,ou=databases,o=att")
        assert str(dn.parent()) == "ou=databases,o=att"

    def test_child(self):
        dn = parse_dn("o=att")
        assert str(dn.child("ou=labs")) == "ou=labs,o=att"

    def test_root_predicates(self):
        assert parse_dn("o=att").is_root()
        assert not parse_dn("ou=x,o=att").is_root()
        assert parse_dn("").is_empty()

    def test_empty_dn_has_no_rdn(self):
        with pytest.raises(ModelError):
            _ = parse_dn("").rdn

    def test_empty_dn_has_no_parent(self):
        with pytest.raises(ModelError):
            parse_dn("").parent()

    def test_ancestor_of(self):
        att = parse_dn("o=att")
        labs = parse_dn("ou=labs,o=att")
        laks = parse_dn("uid=laks,ou=labs,o=att")
        assert att.is_ancestor_of(labs)
        assert att.is_ancestor_of(laks)
        assert labs.is_ancestor_of(laks)
        assert not laks.is_ancestor_of(labs)
        assert not att.is_ancestor_of(att)

    def test_ancestor_requires_suffix_match(self):
        assert not parse_dn("o=ibm").is_ancestor_of(parse_dn("ou=x,o=att"))

    def test_empty_dn_is_ancestor_of_everything(self):
        assert parse_dn("").is_ancestor_of(parse_dn("o=att"))
        assert not parse_dn("").is_ancestor_of(parse_dn(""))

    def test_iteration_and_len(self):
        dn = parse_dn("a=1,b=2")
        assert len(dn) == 2
        assert [r.attribute for r in dn] == ["a", "b"]


_name = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=8,
)
_value = st.text(min_size=1, max_size=12).filter(lambda s: s.strip() == s and s.strip())


class TestDnProperties:
    @given(st.lists(st.tuples(_name, _value), min_size=1, max_size=5))
    def test_roundtrip_through_string(self, parts):
        dn = DN(tuple(RDN(a, v) for a, v in parts))
        assert parse_dn(str(dn)) == dn

    @given(st.lists(st.tuples(_name, _value), min_size=2, max_size=5))
    def test_parent_is_proper_ancestor(self, parts):
        dn = DN(tuple(RDN(a, v) for a, v in parts))
        assert dn.parent().is_ancestor_of(dn)

    @given(_name, _value)
    def test_rdn_roundtrip(self, attribute, value):
        rdn = RDN(attribute, value)
        assert parse_rdn(str(rdn)) == rdn


class TestDnMemo:
    """``parse_dn``/``parse_rdn``/``_escape_value`` are memoised on
    their raw text; the memo must be invisible."""

    @given(st.lists(st.tuples(_name, _value), min_size=1, max_size=5))
    def test_cached_parse_equals_uncached(self, parts):
        text = str(DN(tuple(RDN(a, v) for a, v in parts)))
        parse_dn(text)  # make the second call below a memo hit
        before = parse_dn.cache_info().hits
        assert parse_dn(text) == parse_dn.__wrapped__(text)
        assert parse_dn.cache_info().hits == before + 1
        # strip() semantics survive caching on the raw text
        assert parse_dn(f"  {text}  ") == parse_dn.__wrapped__(f"  {text}  ")

    def test_escaped_dn_cached_and_uncached_agree(self):
        text = "cn=Lakshmanan\\, Laks+x\\=y,ou=\\ padded\\ ,o=att"
        assert parse_dn(text) == parse_dn.__wrapped__(text)
        assert str(parse_dn(text)) == str(parse_dn.__wrapped__(text))
        assert parse_dn(str(parse_dn(text))) == parse_dn(text)

    def test_error_is_not_cached_as_a_success(self):
        for _ in range(2):  # a memoised failure would return on pass two
            with pytest.raises(ModelError):
                parse_dn("uid=ok,no-separator")
            with pytest.raises(ModelError):
                parse_rdn("=value")
