"""Session-wide test ordering."""


def pytest_collection_modifyitems(config, items):
    # The unit tests finish in about a minute; the acceptance battery takes
    # a quarter of an hour. Run the quick ones first so a broken build shows
    # at once. The sort is stable: each group keeps its file and definition
    # order, so the acceptance module's shared fixtures are built just once.
    items.sort(key=lambda item: item.get_closest_marker("acceptance") is not None)
