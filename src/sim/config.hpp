/**
 * @file
 * Typed key/value simulation configuration, in the spirit of BookSim's
 * configuration system. All simulator knobs flow through SimConfig so
 * experiments are reproducible from a flat parameter list.
 */

#ifndef FOOTPRINT_SIM_CONFIG_HPP
#define FOOTPRINT_SIM_CONFIG_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace footprint {

/**
 * A flat, typed key/value store for simulation parameters.
 *
 * Values are stored as strings and converted on read; reading a key that
 * was never set and has no registered default is a fatal error, which
 * catches typos in experiment scripts early.
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

    /** @return true if @p key has a value (set or default). */
    bool contains(const std::string& key) const;

    /** Typed getters; fatal() on missing key or malformed value. */
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

    /**
     * Whether @p key is recognized by any subsystem (the curated list
     * covers every key the simulator, benches, and examples read).
     */
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
 */
SimConfig defaultConfig();

} // namespace footprint

#endif // FOOTPRINT_SIM_CONFIG_HPP
