"""Fixture twin: the solve loop where it belongs, plus lower-layer imports."""

from repro.flowshop.instance import FlowShopInstance


class SearchDriver:
    def run(self, frontier):
        explored = 0
        while frontier:  # allowed: bb/driver.py owns the solve loop
            frontier.pop()
            explored += 1
        return explored, FlowShopInstance


def run_search(driver, frontier):
    # allowed: bb/driver.py owns the loop's one call site
    return driver.run(frontier)
