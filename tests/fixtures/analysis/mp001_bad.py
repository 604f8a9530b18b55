"""Known-bad corpus for MP001: pickle-unsafe callables crossing processes."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from functools import partial


def submit_lambda(executor: ProcessPoolExecutor):
    return executor.submit(lambda: 42)  # expect: MP001


def map_nested_function(pool):
    def evaluate(cell):
        return cell * 2

    return pool.map(evaluate, range(4))  # expect: MP001


def process_target_lambda():
    worker = multiprocessing.Process(target=lambda: None)  # expect: MP001
    return worker


def partial_over_lambda(pool):
    return pool.apply_async(partial(lambda x: x, 1))  # expect: MP001


def thread_process_and_future_receivers(threads, procs, futures):
    threads.map(lambda cell: cell, range(4))  # expect: MP001
    procs.apply_async(lambda: None)  # expect: MP001
    return futures.submit(lambda: 42)  # expect: MP001


class Engine:
    def dispatch(self, pool):
        return pool.imap_unordered(self.evaluate, range(4))  # expect: MP001

    def evaluate(self, cell):
        return cell
