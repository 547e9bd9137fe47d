"""The persisted, checksummed shard map: routing semantics, validation
of the cut, and the checksummed persistence (damage refuses to open
— the map is authoritative, there is no fallback)."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ShardMapError, ShardRoutingError
from repro.model.dn import DN, parse_dn
from repro.store.shardmap import (
    SHARD_MAP_FILE,
    ShardMap,
    ShardSpec,
    decode_shard_map,
    encode_shard_map,
    inspect_shard_map,
    read_shard_map,
    shard_dir,
    write_shard_map,
)


def flat_map() -> ShardMap:
    return ShardMap.from_bases({"a": "o=org0", "b": "o=org1"})


def nested_map() -> ShardMap:
    return ShardMap.from_bases(
        {"att": "o=att", "labs": "ou=attLabs,o=att"}
    )


class TestValidation:
    def test_empty_map_rejected(self):
        with pytest.raises(ShardMapError, match="at least one"):
            ShardMap([]).validate()

    def test_duplicate_bases_rejected(self):
        with pytest.raises(ShardMapError, match="duplicate shard bases"):
            ShardMap.from_bases({"a": "o=x", "b": "O=X"})

    def test_duplicate_names_rejected(self):
        specs = [
            ShardSpec("a", parse_dn("o=x")),
            ShardSpec("a", parse_dn("o=y")),
        ]
        with pytest.raises(ShardMapError, match="duplicate shard names"):
            ShardMap(specs).validate()

    @pytest.mark.parametrize("name", ["", "a/b", ".", ".."])
    def test_unusable_directory_names_rejected(self, name):
        with pytest.raises(ShardMapError, match="invalid shard name"):
            ShardMap.from_bases({name: "o=x"})

    def test_nested_base_needs_enclosing_shard(self):
        with pytest.raises(ShardMapError, match="no .*owns its parent"):
            ShardMap.from_bases({"labs": "ou=attLabs,o=att"})

    def test_nested_base_with_enclosing_shard_ok(self):
        assert nested_map().has_cut()

    def test_flat_map_has_no_cut(self):
        assert not flat_map().has_cut()

    def test_empty_base_rejected(self):
        with pytest.raises(ShardMapError, match="empty base"):
            ShardMap([ShardSpec("a", DN(()))]).validate()


class TestRouting:
    def test_routes_to_owning_root(self):
        assert flat_map().route("ou=u,o=org0").name == "a"
        assert flat_map().route("o=org1").name == "b"

    def test_deepest_base_wins(self):
        shard_map = nested_map()
        assert shard_map.route("uid=x,ou=attLabs,o=att").name == "labs"
        assert shard_map.route("ou=attLabs,o=att").name == "labs"
        # The cut's parent (and its other children) stay enclosing.
        assert shard_map.route("o=att").name == "att"
        assert shard_map.route("uid=armstrong,o=att").name == "att"

    def test_routing_is_case_insensitive(self):
        assert nested_map().route("UID=X,OU=ATTLABS,O=ATT").name == "labs"

    def test_unowned_dn_raises(self):
        with pytest.raises(ShardRoutingError, match="no shard owns"):
            flat_map().route("o=elsewhere")

    def test_empty_dn_raises(self):
        with pytest.raises(ShardRoutingError):
            flat_map().route(DN(()))

    def test_localize_globalize_roundtrip(self):
        shard_map = nested_map()
        dn = parse_dn("uid=x,ou=attLabs,o=att")
        spec = shard_map.route(dn)
        local = shard_map.localize(dn, spec)
        assert str(local) == "uid=x,ou=attLabs"
        assert str(shard_map.globalize(local, spec)) == str(dn)

    def test_depth1_base_stores_full_dns(self):
        shard_map = flat_map()
        dn = parse_dn("ou=u,o=org0")
        spec = shard_map.route(dn)
        assert shard_map.localize(dn, spec) is dn

    def test_spec_lookup_unknown_name(self):
        with pytest.raises(ShardMapError, match="no shard named"):
            flat_map().spec("nope")


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        root = str(tmp_path)
        write_shard_map(root, nested_map())
        assert read_shard_map(root) == nested_map()

    def test_missing_map_refuses(self, tmp_path):
        with pytest.raises(ShardMapError, match="cannot read shard map"):
            read_shard_map(str(tmp_path))

    def test_checksum_guards_every_byte(self, tmp_path):
        root = str(tmp_path)
        write_shard_map(root, flat_map())
        path = os.path.join(root, SHARD_MAP_FILE)
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        # Flip a byte inside the shards body (not the crc field itself —
        # find the base string).
        index = bytes(data).index(b"org0")
        data[index] = data[index] ^ 0x01
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(ShardMapError, match="checksum mismatch"):
            read_shard_map(root)

    def test_garbage_is_not_json(self):
        with pytest.raises(ShardMapError, match="not valid JSON"):
            decode_shard_map(b"\x00\xff garbage")

    def test_unknown_format_version(self):
        payload = json.loads(encode_shard_map(flat_map()))
        payload["format"] = 99
        with pytest.raises(ShardMapError, match="unknown shard map format"):
            decode_shard_map(json.dumps(payload).encode())

    def test_decoded_map_is_revalidated(self):
        # A syntactically fine payload carrying an invalid cut (nested
        # base without its enclosing shard) must still refuse.
        bogus = ShardMap(
            [
                ShardSpec("a", parse_dn("o=att")),
                ShardSpec("b", parse_dn("ou=x,o=other")),
            ]
        )
        with pytest.raises(ShardMapError):
            decode_shard_map(encode_shard_map(bogus))

    def test_inspect_returns_none_for_plain_dirs(self, tmp_path):
        assert inspect_shard_map(str(tmp_path)) is None
        write_shard_map(str(tmp_path), flat_map())
        assert inspect_shard_map(str(tmp_path)) == flat_map()

    def test_shard_dir_layout(self):
        assert shard_dir("/r", "a") == os.path.join("/r", "shards", "a")
