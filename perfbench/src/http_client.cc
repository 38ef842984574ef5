#include "http_client.hh"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace perfbench
{

std::string
httpRequest(const std::string &method, const std::string &target,
            const std::string &body)
{
    std::ostringstream os;
    os << method << ' ' << target << " HTTP/1.1\r\n"
       << "Host: 127.0.0.1\r\n"
       << "Connection: keep-alive\r\n"
       << "Content-Length: " << body.size() << "\r\n\r\n"
       << body;
    return os.str();
}

HttpClient::~HttpClient()
{
    disconnect();
}

void
HttpClient::disconnect()
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
}

bool
HttpClient::connectNow()
{
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        disconnect();
        return false;
    }
    return true;
}

int
HttpClient::exchange(const std::string &wire, std::string &body)
{
    body.clear();
    if (fd < 0 && !connectNow())
        return 0;
    for (std::size_t sent = 0; sent < wire.size();) {
        const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                                 MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            disconnect();
            return 0;
        }
        sent += std::size_t(n);
    }

    std::string raw;
    char chunk[16384];
    std::size_t headEnd;
    while ((headEnd = raw.find("\r\n\r\n")) == std::string::npos) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            disconnect();
            return 0;
        }
        raw.append(chunk, std::size_t(n));
    }
    int status = 0;
    std::sscanf(raw.c_str(), "HTTP/1.1 %d", &status);

    // Header names may come in any case.
    std::string head = raw.substr(0, headEnd);
    for (char &c : head)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    std::size_t bodyLen = 0;
    const std::size_t cl = head.find("content-length:");
    if (cl != std::string::npos)
        bodyLen = std::strtoul(head.c_str() + cl + 15, nullptr, 10);
    const bool closing = head.find("connection: close") != std::string::npos;

    body = raw.substr(headEnd + 4);
    while (body.size() < bodyLen) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            disconnect();
            return 0;
        }
        body.append(chunk, std::size_t(n));
    }
    if (closing)
        disconnect();
    return status;
}

} // namespace perfbench
