import threading

import pytest

from pointssl._threads import thread_map


def test_results_keep_input_order_when_later_items_finish_first():
    finished = []
    second_done = threading.Event()

    def fn(item):
        if item == 0:
            assert second_done.wait(timeout=10)
        finished.append(item)
        if item == 1:
            second_done.set()
        return item * 10

    assert thread_map(fn, [0, 1], workers=2) == [0, 10]
    assert finished == [1, 0]


def test_a_worker_exception_reaches_the_caller():
    def fn(item):
        if item == 2:
            raise KeyError(item)
        return item

    with pytest.raises(KeyError):
        thread_map(fn, range(5), workers=2)


@pytest.mark.parametrize("items, workers", [(range(4), 1), (range(4), 0), ([7], 4), ([], 4)])
def test_inline_on_the_calling_thread(items, workers):
    def fn(item):
        return item, threading.get_ident()

    results = thread_map(fn, items, workers)
    assert [item for item, _ in results] == list(items)
    assert {ident for _, ident in results} <= {threading.get_ident()}
