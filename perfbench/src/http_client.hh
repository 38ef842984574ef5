/**
 * @file
 * A minimal blocking HTTP/1.1 client over one keep-alive loopback
 * connection: send a request, read exactly one Content-Length response.
 */

#ifndef PERFBENCH_HTTP_CLIENT_HH
#define PERFBENCH_HTTP_CLIENT_HH

#include <string>

namespace perfbench
{

/** Bytes of one request with Content-Length and keep-alive headers. */
std::string httpRequest(const std::string &method, const std::string &target,
                        const std::string &body);

class HttpClient
{
  public:
    explicit HttpClient(unsigned server_port) : port(server_port) {}
    ~HttpClient();
    HttpClient(const HttpClient &) = delete;
    HttpClient &operator=(const HttpClient &) = delete;

    /**
     * Send @p wire and read the response. Reconnects first when the
     * previous response closed the connection.
     * @return the status code, or 0 when the exchange failed
     */
    int exchange(const std::string &wire, std::string &body);

  private:
    bool connectNow();
    void disconnect();

    unsigned port;
    int fd = -1;
};

} // namespace perfbench

#endif // PERFBENCH_HTTP_CLIENT_HH
