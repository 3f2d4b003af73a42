"""The artifact writer leaves exactly the text written, whatever was there."""

import os
import tempfile
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stratinv.errors import text_output


class _Stop(Exception):
    pass


@given(
    old=st.one_of(st.none(), st.binary(), st.text().map(str.encode)),
    chunks=st.lists(st.text(), max_size=5),
    stop=st.one_of(st.none(), st.integers(0, 5)),
    newline=st.sampled_from([None, ""]),
)
@example(old="é".encode() * 300, chunks=["short"], stop=None, newline=None)
@example(old=b"x", chunks=["a much longer text ü中\n"], stop=None, newline=None)
@example(old=b"old text, longer", chunks=["ab", "cd", "ef"], stop=1, newline="")
def test_text_output_leaves_exactly_the_text_written(old, chunks, stop, newline):
    """Over any old content (none, shorter, longer), the file equals the UTF-8
    bytes written; when the block raises part-way, the prefix written so far."""
    written = chunks if stop is None else chunks[:stop]
    want = "".join(written)
    if newline is None:
        want = want.replace("\n", os.linesep)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact.txt"
        if old is not None:
            path.write_bytes(old)
        with pytest.raises(_Stop) if stop is not None else nullcontext():
            with text_output(path, newline=newline) as fh:
                for chunk in written:
                    fh.write(chunk)
                if stop is not None:
                    raise _Stop
        assert path.read_bytes() == want.encode("utf-8")


def test_text_output_writes_to_a_file_it_cannot_cut():
    with text_output(os.devnull) as fh:
        fh.write("discarded\n")
