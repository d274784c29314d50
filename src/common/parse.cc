#include "common/parse.hh"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <system_error>
#include <type_traits>

#include "common/logging.hh"

namespace svr
{

template <typename T>
T
parseNumber(std::string_view what, std::string_view text)
{
    T value{};
    const char *last = text.data() + text.size();
    // from_chars takes no '+' or leading whitespace; a leading '-' is
    // only legal for double, so it is refused here for every T.
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    if (text.empty() || text[0] == '-' || ec == std::errc::invalid_argument ||
        end != last) {
        fatal("%.*s: '%.*s' is not a non-negative decimal number",
              static_cast<int>(what.size()), what.data(),
              static_cast<int>(text.size()), text.data());
    }
    bool finite = true;
    if constexpr (std::is_floating_point_v<T>)
        finite = std::isfinite(value);
    if (ec == std::errc::result_out_of_range || !finite) {
        fatal("%.*s: '%.*s' is out of range",
              static_cast<int>(what.size()), what.data(),
              static_cast<int>(text.size()), text.data());
    }
    return value;
}

template unsigned parseNumber<unsigned>(std::string_view, std::string_view);
template std::uint64_t parseNumber<std::uint64_t>(std::string_view,
                                                  std::string_view);
template double parseNumber<double>(std::string_view, std::string_view);

} // namespace svr
