"""Checks of the benchmark's own arithmetic (arith.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import arith


class PercentileTest(unittest.TestCase):
    def test_value_carries_sample_count(self):
        value, n = arith.percentile([float(v) for v in range(1, 101)], 50)
        self.assertEqual(n, 100)
        self.assertAlmostEqual(value, 50.5)

    def test_interpolates_between_order_statistics(self):
        value, _ = arith.percentile([float(v) for v in range(1000)], 99)
        self.assertAlmostEqual(value, 989.01)

    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertEqual(arith.percentile([1.0] * 999, 99), (None, 999))
        self.assertEqual(arith.percentile([1.0] * 1000, 99), (1.0, 1000))

    def test_p50_needs_twenty_samples(self):
        self.assertEqual(arith.percentile([1.0] * 19, 50), (None, 19))
        self.assertEqual(arith.percentile([1.0] * 20, 50), (1.0, 20))
        self.assertEqual(arith.percentile([], 50), (None, 0))

    def test_input_order_does_not_matter(self):
        samples = [float((7 * i) % 101) for i in range(101)]
        self.assertEqual(arith.percentile(samples, 50), arith.percentile(sorted(samples), 50))


class LayerMapTest(unittest.TestCase):
    def test_longest_prefix_wins(self):
        self.assertEqual(arith.layer_of("net.datagram.deliver"), "net.deliver_us_per_fetch")
        self.assertEqual(arith.layer_of("net.tcp.response"), "net.tcp_us_per_fetch")
        self.assertEqual(arith.layer_of("net.dns.timeout"), "net.tcp_us_per_fetch")

    def test_every_module_prefix(self):
        cases = {
            "wan.dns.serve": "dns.servers_us_per_fetch",
            "edge.http.serve": "http.servers_us_per_fetch",
            "origin.http.backend": "http.servers_us_per_fetch",
            "ap.dns.cache_lookup": "core.ap_dns_us_per_fetch",
            "ap.http.serve": "core.ap_http_us_per_fetch",
            "ap.cache.sweep": "core.ap_http_us_per_fetch",
            "client.app.arrive": "core.client_us_per_fetch",
            "ap.dir.lookup_timeout": "fleet.directory_us_per_fetch",
            "controller.dir.lookup": "fleet.directory_us_per_fetch",
        }
        for kind, layer in cases.items():
            self.assertEqual(arith.layer_of(kind), layer, kind)

    def test_unknown_prefix_goes_to_other(self):
        for kind in ("(untagged)", "ap.flash.read", "controller.timeline.tick", "network.x"):
            self.assertEqual(arith.layer_of(kind), arith.OTHER, kind)


class FetchAccountingTest(unittest.TestCase):
    def test_unanswered_fetches_count_as_failed(self):
        self.assertEqual(arith.fetch_failures(attempted=10, answered=7, failed_answers=0), 3)
        self.assertEqual(arith.fetch_failures(attempted=10, answered=7, failed_answers=2), 5)
        self.assertEqual(arith.fetch_failures(attempted=10, answered=10, failed_answers=0), 0)


class HostSplitTest(unittest.TestCase):
    KINDS = {"net.tcp.response": 900_000, "net.datagram.deliver": 200_000,
             "ap.dns.serve": 50_000, "client.app.arrive": 30_000, "(untagged)": 20_000}

    def test_per_fetch_layers_sum_to_wall_per_fetch(self):
        wall_s, fetches = 0.0015, 37
        layers, problems = arith.host_layers_us(self.KINDS, 600.0, wall_s)
        self.assertEqual(problems, [])
        total = sum(arith.per_fetch(layers, fetches).values())
        self.assertTrue(math.isclose(total, wall_s * 1e6 / fetches, rel_tol=1e-12))

    def test_solves_move_out_of_the_response_kind(self):
        layers, _ = arith.host_layers_us(self.KINDS, 600.0, 0.0015)
        self.assertAlmostEqual(layers[arith.PACM], 600.0)
        self.assertAlmostEqual(layers[arith.TCP], 300.0)
        self.assertAlmostEqual(layers[arith.DISPATCH], 300.0)
        self.assertAlmostEqual(layers[arith.OTHER], 20.0)

    def test_broken_invariants_are_named(self):
        _, problems = arith.host_layers_us(self.KINDS, 950.0, 0.0011)
        self.assertEqual(len(problems), 2)
        self.assertIn("exceed the run's wall", problems[0])
        self.assertIn("net.tcp.response", problems[1])


if __name__ == "__main__":
    unittest.main()
