"""The public namespace: every exported name resolves, none is listed twice."""

import incoframes


def test_all_names_resolve_once():
    names = incoframes.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(incoframes, name)]
    assert missing == []
