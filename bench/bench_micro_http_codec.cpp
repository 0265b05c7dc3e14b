// Microbenchmarks: HTTP head codec throughput for the AP-hit exchange —
// the request a client sends the AP after a Cache-Hit flag (three X-Ape-*
// headers) and the AP's answer (X-Cache, X-Object-*, simulated body).
// Every fetch serializes and parses both once, on top of the two DNS
// messages bench_micro_dns_codec covers.
#include <benchmark/benchmark.h>

#include "bench_micro_common.hpp"

#include "http/message.hpp"
#include "http/url.hpp"

namespace {

using namespace ape;

constexpr const char* kUrl = "http://app3.example.com/thumbnails/obj12";

http::HttpRequest make_request() {
  http::HttpRequest req;
  req.url = http::Url::parse(kUrl).value();
  req.headers.emplace_back("X-Ape-App", "3");
  req.headers.emplace_back("X-Ape-Ttl", "2700");
  req.headers.emplace_back("X-Ape-Priority", "2");
  return req;
}

http::HttpResponse make_response() {
  http::HttpResponse resp;
  resp.status = 200;
  resp.simulated_body_bytes = 150'000;
  resp.headers.emplace_back("X-Cache", "AP-HIT");
  resp.headers.emplace_back("X-Object-Priority", "2");
  resp.headers.emplace_back("X-Object-App", "3");
  return resp;
}

void BM_RequestToTcp(benchmark::State& state) {
  const auto req = make_request();
  for (auto _ : state) benchmark::DoNotOptimize(req.to_tcp());
}
BENCHMARK(BM_RequestToTcp);

void BM_RequestFromTcp(benchmark::State& state) {
  const auto wire = make_request().to_tcp();
  for (auto _ : state) benchmark::DoNotOptimize(http::HttpRequest::from_tcp(wire));
}
BENCHMARK(BM_RequestFromTcp);

void BM_ResponseToTcp(benchmark::State& state) {
  const auto resp = make_response();
  for (auto _ : state) benchmark::DoNotOptimize(resp.to_tcp());
}
BENCHMARK(BM_ResponseToTcp);

void BM_ResponseFromTcp(benchmark::State& state) {
  const auto wire = make_response().to_tcp();
  for (auto _ : state) benchmark::DoNotOptimize(http::HttpResponse::from_tcp(wire));
}
BENCHMARK(BM_ResponseFromTcp);

// The whole exchange as one fetch pays it: both heads out and back in.
void BM_ApHitExchange(benchmark::State& state) {
  const auto req = make_request();
  const auto resp = make_response();
  for (auto _ : state) {
    benchmark::DoNotOptimize(http::HttpRequest::from_tcp(req.to_tcp()));
    benchmark::DoNotOptimize(http::HttpResponse::from_tcp(resp.to_tcp()));
  }
}
BENCHMARK(BM_ApHitExchange);

void BM_UrlParse(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(http::Url::parse(kUrl));
}
BENCHMARK(BM_UrlParse);

}  // namespace

APE_MICRO_BENCH_MAIN("micro_http_codec")
