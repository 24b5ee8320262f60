#include "uarch/bram.hh"

#include "common/logging.hh"

namespace compaqt::uarch
{

BankedWaveform::BankedWaveform(std::size_t width)
    : width_(width), banks_(width), valid_(width)
{
    COMPAQT_REQUIRE(width > 0, "bank group needs at least one bank");
}

void
BankedWaveform::appendWindow(const std::vector<Word> &words)
{
    COMPAQT_REQUIRE(words.size() <= width_,
                    "window exceeds uniform memory width");
    for (std::size_t j = 0; j < width_; ++j) {
        if (j < words.size()) {
            banks_[j].push_back(words[j]);
            valid_[j].push_back(true);
        } else {
            banks_[j].push_back(Word{});
            valid_[j].push_back(false);
        }
    }
    ++numWindows_;
}

std::size_t
BankedWaveform::fetchWindowInto(std::size_t w,
                                std::span<Word> out) const
{
    COMPAQT_REQUIRE(w < numWindows_, "window index out of range");
    COMPAQT_REQUIRE(out.size() >= width_,
                    "fetch output span narrower than the bank group");
    std::size_t n = 0;
    for (std::size_t j = 0; j < width_; ++j) {
        if (valid_[j][w]) {
            out[n++] = banks_[j][w];
            ++accesses_;
        }
    }
    return n;
}

std::size_t
BankedWaveform::storedWords() const
{
    std::size_t n = 0;
    for (const auto &v : valid_)
        for (bool b : v)
            n += b ? 1 : 0;
    return n;
}

} // namespace compaqt::uarch
