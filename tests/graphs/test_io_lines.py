"""Both edge-list readers name ``path:line`` in their malformed-line
error."""

import re

import pytest

from repro.graphs import iter_edge_list, read_edge_list


@pytest.mark.parametrize(
    "reader",
    [read_edge_list, lambda path: list(iter_edge_list(path))],
    ids=["read_edge_list", "iter_edge_list"],
)
def test_malformed_line_error_names_path_and_line(tmp_path, reader):
    path = tmp_path / "bad.txt"
    path.write_text("# header\n1 2\n\n3\n")
    expected = rf"^{re.escape(str(path))}:4: expected two vertex tokens"
    with pytest.raises(ValueError, match=expected):
        reader(path)

