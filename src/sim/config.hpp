/**
 * @file
 * Typed key/value simulation configuration, in the spirit of BookSim's
 * configuration system. All simulator knobs flow through SimConfig so
 * experiments are reproducible from a flat parameter list.
 */

#ifndef FOOTPRINT_SIM_CONFIG_HPP
#define FOOTPRINT_SIM_CONFIG_HPP

#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace footprint {

/** What a key's value reads as: the typed getter that may read it. */
enum class KeyType { Str, Bool, Int, Real };

/**
 * One row of the config table in config.cpp: a key some subsystem
 * reads, declared once with its default, the range its reader accepts
 * and whether it names the experiment.
 */
struct ConfigKey
{
    std::string_view key;
    KeyType type = KeyType::Str;
    /** Default value; nullptr where an unset key means something. */
    const char* def = nullptr;
    /** Range getInt()/getDouble() accept; infinite bounds are open. */
    double min = -std::numeric_limits<double>::infinity();
    double max = std::numeric_limits<double>::infinity();
    /**
     * Part of the run identity (RunMetadata's config hash); false for
     * a key that only says how the program runs the experiment.
     */
    bool identity = true;
};

/** The config table: one row per key any subsystem reads. */
std::span<const ConfigKey> configKeys();

/** @p key's row of the config table, or nullptr for an unknown key. */
const ConfigKey* findConfigKey(std::string_view key);

/**
 * A flat, typed key/value store for simulation parameters.
 *
 * Values are stored as strings and converted on read. A key that was
 * never set reads as its config-table default; reading an unset key
 * that has no default is a fatal error, which catches typos in
 * experiment scripts early, and so is a numeric value outside its
 * row's range.
 */
class SimConfig
{
  public:
    SimConfig();

    /** Set (or override) a parameter. */
    void set(const std::string& key, const std::string& value);
    void setInt(const std::string& key, std::int64_t value);
    void setDouble(const std::string& key, double value);
    void setBool(const std::string& key, bool value);

    /** @return true if @p key was explicitly set. */
    bool contains(const std::string& key) const;

    /**
     * Typed getters: an unset key reads as its table default.
     * fatal() on a missing key, a malformed value, or (getInt /
     * getDouble) a value outside the key's range; panic when the
     * key's row has another type than the getter reads.
     */
    std::string getStr(const std::string& key) const;
    std::int64_t getInt(const std::string& key) const;
    double getDouble(const std::string& key) const;
    bool getBool(const std::string& key) const;

    /**
     * Parse a "key=value" assignment (as accepted on bench command
     * lines) into this config. @return false if @p arg is not of that
     * shape.
     */
    bool parseAssignment(const std::string& arg);

    /** Parse every argv entry of the form key=value. */
    void parseArgs(int argc, char** argv);

    /**
     * Load assignments from a config file: one "key = value" (or
     * "key=value") per line, '#' starts a comment. fatal() on missing
     * file or malformed lines.
     */
    void loadFile(const std::string& path);

    /** All keys currently present, sorted (for dumping). */
    std::vector<std::string> keys() const;

    /** Whether @p key has a row in the config table. */
    static bool isKnownKey(const std::string& key);

    /** Present keys no subsystem recognizes, sorted. */
    std::vector<std::string> unknownKeys() const;

    /**
     * warn() (through the log sink) about every unrecognized key, with
     * the closest known key suggested when one is plausibly a typo.
     * A typo'd "timeseries_*" / "audit_*" key silently disabling a
     * subsystem is exactly the failure mode this catches.
     *
     * @return the number of unknown keys warned about.
     */
    std::size_t warnUnknownKeys() const;

    /** Render the whole config as "key = value" lines. */
    std::string toString() const;

  private:
    std::map<std::string, std::string> values_;
};

/**
 * Build the paper's baseline configuration (Table 2 defaults): 8x8 mesh,
 * 10 VCs, buffer depth 4, speedup 2, credit-based wormhole flow control.
 * Every config-table row that has a default is set, so the config
 * prints in full.
 */
SimConfig defaultConfig();

} // namespace footprint

#endif // FOOTPRINT_SIM_CONFIG_HPP
