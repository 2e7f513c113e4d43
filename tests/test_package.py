import roughwave


def test_every_exported_name_resolves():
    assert [name for name in roughwave.__all__ if not hasattr(roughwave, name)] == []
    assert len(set(roughwave.__all__)) == len(roughwave.__all__)
