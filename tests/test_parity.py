"""Replay the parity corpus: every CLI call of parity_corpus.py must give the
digest stored in parity_corpus.txt (same exit code, stdout and stderr)."""

import parity_corpus
from octarray import cli
from octarray.errors import ValidationError


def test_every_corpus_call_replays_its_stored_digest():
    changed = parity_corpus.differences(parity_corpus.load(), parity_corpus.digests())
    assert not changed, "calls whose digest differs:\n" + "\n".join(changed)


def test_one_more_character_in_an_error_text_changes_the_digest(monkeypatch):
    call = parity_corpus.Call("negative mass", ["condense", "down"],
                              '{"type": "array", "rows": [[1, -2]]}')
    before = parity_corpus.digest(call)
    decode = cli._decode

    def louder(obj, decoder):
        try:
            return decode(obj, decoder)
        except ValidationError as exc:
            raise ValidationError(f"{exc}!")

    monkeypatch.setattr(cli, "_decode", louder)
    assert parity_corpus.digest(call) != before
