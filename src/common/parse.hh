/**
 * @file
 * Checked parsing of numeric command-line values. std::stoul and
 * friends skip leading whitespace, accept signs ("-5" wraps to
 * 2^64-5), ignore trailing junk and throw std::invalid_argument that
 * no tool catches. parseNumber() accepts exactly one plain decimal
 * number and reports anything else through fatal(), which is a
 * SimError(ConfigInvalid) under ScopedErrorCapture.
 */

#ifndef SVR_COMMON_PARSE_HH
#define SVR_COMMON_PARSE_HH

#include <string_view>
#include <system_error>

namespace svr
{

/**
 * Parse @p text as a T: unsigned, std::uint64_t or double. Rejects an
 * empty string, any sign, trailing characters, values that overflow T
 * and (for double) non-finite values. @p what names the flag in the
 * error message.
 */
template <typename T>
T parseNumber(std::string_view what, std::string_view text);

/**
 * parseNumber() for stored data: instead of a fatal() it returns
 * std::errc::invalid_argument or result_out_of_range (else errc{}).
 */
template <typename T>
std::errc tryParseNumber(std::string_view text, T &value);

} // namespace svr

#endif // SVR_COMMON_PARSE_HH
