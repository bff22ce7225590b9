/**
 * @file
 * In-memory span recorder for the traced run, and small statistics.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "bench.hh"
#include "exp/report.hh"

namespace perfbench {

namespace {

/** Open spans of the calling thread (innermost last). */
thread_local std::vector<std::size_t> tOpen;

} // namespace

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

double
SpanRecorder::now() const
{
    return seconds(origin_, Clock::now());
}

SpanRecorder::Scope::Scope(SpanRecorder *rec, const char *name)
    : rec_(rec)
{
    if (rec_)
        id_ = rec_->open(name);
}

SpanRecorder::Scope::~Scope()
{
    if (rec_)
        rec_->close(id_);
}

std::size_t
SpanRecorder::open(const char *name)
{
    const double t = now();
    const std::size_t parent = tOpen.empty() ? 0 : tOpen.back();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{spans_.size() + 1, parent, name, t, t});
    tOpen.push_back(spans_.back().id);
    return spans_.back().id;
}

void
SpanRecorder::close(std::size_t id)
{
    const double t = now();
    tOpen.pop_back();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end = t;
}

std::size_t
SpanRecorder::add(const std::string &name, double start, double end,
                  std::size_t parent)
{
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{spans_.size() + 1, parent, name, start, end});
    return spans_.back().id;
}

std::map<std::string, double>
SpanRecorder::selfSecondsByName() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size() + 1);
    for (const Span &s : spans_)
        children[s.parent].emplace_back(s.start, s.end);

    std::map<std::string, double> self;
    for (const Span &s : spans_) {
        // Children may overlap (worker threads under one dispatch),
        // so subtract the union of their intervals, clipped to the
        // parent.
        auto kids = children[s.id];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = s.start;
        for (const auto &k : kids) {
            const double lo = std::max(k.first, reach);
            const double hi = std::min(k.second, s.end);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[s.name] += (s.end - s.start) - covered;
    }
    return self;
}

std::vector<double>
SpanRecorder::durations(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.name == name)
            out.push_back(s.end - s.start);
    }
    return out;
}

void
SpanRecorder::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write trace " + path);
    const std::lock_guard<std::mutex> lock(mu_);
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":"
           << sysscale::exp::jsonQuote(s.name)
           << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << sysscale::exp::formatDouble(s.start * 1e6)
           << ",\"dur\":"
           << sysscale::exp::formatDouble((s.end - s.start) * 1e6)
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << "}}";
    }
    os << "\n]}\n";
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return xs[std::min(idx, xs.size() - 1)];
}

} // namespace perfbench
