"""Fixture: a frontier-driven while loop outside bb/driver.py (single-loop)."""


def drain(pool):
    explored = 0
    while pool:
        node = pool.pop()
        explored += 1
    return explored


def spin(frontier, budget):
    while frontier and budget > 0:
        frontier.pop_batch()
        budget -= 1


class Engine:
    def solve(self):
        while self.open_pool:
            self.open_pool.pop()


def solve_by_hand(driver, frontier):
    # a second call site of the loop: seeding and finalization drift apart
    return driver.run(frontier, upper_bound=float("inf"))
